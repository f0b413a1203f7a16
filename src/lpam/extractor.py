"""Fixed-weight convolutional feature extractors with hand-written VJPs.

The extractor maps a two-block point (two flattened images) to a
channel-major (channels, num_pixels) grouped-feature matrix: stride-1,
zero-padded convolutions with a smoothed-ReLU activation between layers
and a linear final layer.  Weights are fixed inputs, never trained here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import TwoBlockPoint


def smoothed_relu(x, act_delta: float):
    """C1 piecewise-quadratic ReLU surrogate with transition width act_delta."""
    if act_delta <= 0:
        raise ValueError("act_delta must be positive")
    x = np.asarray(x, dtype=np.float64)
    d = act_delta
    mid = x * x / (4.0 * d) + 0.5 * x + d / 4.0
    return np.where(x <= -d, 0.0, np.where(x >= d, x, mid))


def smoothed_relu_deriv(x, act_delta: float):
    """Derivative of :func:`smoothed_relu`; continuous at both breakpoints."""
    if act_delta <= 0:
        raise ValueError("act_delta must be positive")
    x = np.asarray(x, dtype=np.float64)
    # the mid-branch line reads exactly 0 at -d and 1 at d, so clipping it
    # equals the three-branch form bit for bit
    return np.clip(x / (2.0 * act_delta) + 0.5, 0.0, 1.0)


# Per-thread conv scratch, keyed by (in_ch, kh, kw, h, w): the zero-padded
# input and the column matrix.  Reusing them keeps the allocator from
# returning the pages to the OS between calls and faulting them back in.
_scratch = threading.local()


def _conv_buffers(in_ch: int, kh: int, kw: int, h: int, wd: int):
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None:
        bufs = _scratch.bufs = {}
    key = (in_ch, kh, kw, h, wd)
    if key not in bufs:
        # the padded border is zeroed here once and never written again
        bufs[key] = (
            np.zeros((in_ch, h + 2 * (kh // 2), wd + 2 * (kw // 2))),
            np.empty((in_ch, kh, kw, h, wd)),
        )
    return bufs[key]


def _conv_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 zero-padded correlation: (in,h,w) x (out,in,kh,kw) -> (out,h,w).

    One GEMM: the kh*kw shifted windows of the padded input are copied
    into an (in*kh*kw, h*w) column matrix that the flattened kernel
    multiplies.  Both live in this thread's reusable scratch; the
    returned array is always fresh.
    """
    out_ch, in_ch, kh, kw = w.shape
    _, h, wd = x.shape
    py, px = kh // 2, kw // 2
    xp, cols = _conv_buffers(in_ch, kh, kw, h, wd)
    xp[:, py : py + h, px : px + wd] = x
    for dy in range(kh):
        for dx in range(kw):
            cols[:, dy, dx] = xp[:, dy : dy + h, dx : dx + wd]
    out = w.reshape(out_ch, -1) @ cols.reshape(in_ch * kh * kw, h * wd)
    return out.reshape(out_ch, h, wd)


def _conv_backward(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`_conv_forward` with respect to the input.

    For odd kernel sides under "same" zero padding the adjoint is the
    same correlation with the kernel flipped in space and its channel
    axes swapped.
    """
    return _conv_forward(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


class FeatureExtractor:
    """Layered convolution/activation map over the channel-stacked image pair.

    ``weights`` is a list of (out_ch, in_ch, kh, kw) kernels; the first
    layer must take 2 input channels and kernel sides must be odd so the
    adjoint of each zero-padded correlation is the flipped-kernel
    correlation.
    """

    def __init__(self, height: int, width: int, weights: list[np.ndarray], act_delta: float):
        if act_delta <= 0:
            raise ValueError("act_delta must be positive")
        if not weights:
            raise ValueError("at least one layer is required")
        ws = [np.asarray(w, dtype=np.float64) for w in weights]
        in_ch = 2
        for i, w in enumerate(ws):
            if w.ndim != 4:
                raise ValueError(f"layer {i}: kernel must be 4-d")
            if w.shape[1] != in_ch:
                raise ValueError(
                    f"layer {i}: expected {in_ch} input channels, got {w.shape[1]}"
                )
            if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
                raise ValueError(f"layer {i}: kernel sides must be odd")
            in_ch = w.shape[0]
        self.height = int(height)
        self.width = int(width)
        self.weights = ws
        self.act_delta = float(act_delta)

    @property
    def num_groups(self) -> int:
        return self.height * self.width

    @property
    def group_dim(self) -> int:
        return self.weights[-1].shape[0]

    def _stack(self, X: TwoBlockPoint) -> np.ndarray:
        n = self.num_groups
        if X.n != n or X.m != n:
            raise ValueError(f"expected two blocks of length {n}")
        return np.stack(
            [X.x1.reshape(self.height, self.width), X.x2.reshape(self.height, self.width)]
        )

    def linearize(
        self, X: TwoBlockPoint
    ) -> tuple[np.ndarray, Callable[[np.ndarray], TwoBlockPoint]]:
        """Features at X and the pullback of the extractor Jacobian at X.

        Runs one forward pass and keeps its pre-activations, so the
        returned pullback (grouped weights w -> TwoBlockPoint) runs only
        the backward convolutions.
        """
        a = self._stack(X)
        pre_acts = []
        for wk in self.weights[:-1]:
            z = _conv_forward(a, wk)
            pre_acts.append(z)
            a = smoothed_relu(z, self.act_delta)
        feats = _conv_forward(a, self.weights[-1]).reshape(self.group_dim, -1)

        def pullback(w: np.ndarray) -> TwoBlockPoint:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (self.group_dim, self.num_groups):
                raise ValueError(
                    f"weights must have shape {(self.group_dim, self.num_groups)}"
                )
            g = w.reshape(self.group_dim, self.height, self.width)
            g = _conv_backward(g, self.weights[-1])
            for wk, z in zip(reversed(self.weights[:-1]), reversed(pre_acts)):
                g = _conv_backward(g * smoothed_relu_deriv(z, self.act_delta), wk)
            return TwoBlockPoint(g[0].ravel(), g[1].ravel())

        return feats, pullback

    def forward(self, X: TwoBlockPoint) -> np.ndarray:
        """Grouped features, shape (group_dim, num_groups)."""
        return self.linearize(X)[0]

    def vjp(self, X: TwoBlockPoint, w: np.ndarray) -> TwoBlockPoint:
        """Pullback of the extractor Jacobian applied to grouped weights w."""
        return self.linearize(X)[1](w)

    def _layer_bounds(self) -> list[float]:
        # spectral-norm bound per layer: sum over kernel taps of the
        # per-tap (out, in) matrix spectral norm; activations are
        # 1-Lipschitz so they do not enter
        bounds = []
        for w in self.weights:
            taps = w.reshape(w.shape[0], w.shape[1], -1)
            b = sum(float(np.linalg.norm(taps[:, :, t], 2)) for t in range(taps.shape[2]))
            bounds.append(b)
        return bounds

    def jacobian_norm_bound(self) -> float:
        """Upper bound on the operator norm of the extractor Jacobian."""
        return float(np.prod(self._layer_bounds()))

    def curvature_bound(self) -> float:
        """Upper bound on the second derivative of the extractor map.

        Each activation layer contributes its curvature 1/(2*act_delta)
        scaled by the squared bound of the layers before it and the
        bound of the layers after it.
        """
        bounds = self._layer_bounds()
        sigma2 = 1.0 / (2.0 * self.act_delta)
        total = 0.0
        for l in range(len(bounds) - 1):  # activation after layer l
            before = float(np.prod(bounds[: l + 1]))
            after = float(np.prod(bounds[l + 1 :]))
            total += before**2 * sigma2 * after
        return total


@dataclass(frozen=True)
class IdentityExtractor:
    """Per-pixel pairing of the two channels: g(X)_i = (x1_i, x2_i).

    The Jacobian is the identity, so the smoothed l2,1 built on it is the
    plain joint-sparsity regularizer.  Features are the two images stacked
    as rows, and the pullback of weights w is its two rows, as views.
    """

    height: int
    width: int

    @property
    def num_groups(self) -> int:
        return self.height * self.width

    @property
    def group_dim(self) -> int:
        return 2

    def forward(self, X: TwoBlockPoint) -> np.ndarray:
        n = self.num_groups
        if X.n != n or X.m != n:
            raise ValueError(f"expected two blocks of length {n}")
        return np.stack([X.x1, X.x2])

    def linearize(
        self, X: TwoBlockPoint
    ) -> tuple[np.ndarray, Callable[[np.ndarray], TwoBlockPoint]]:
        return self.forward(X), lambda w: self.vjp(X, w)

    def vjp(self, X: TwoBlockPoint, w: np.ndarray) -> TwoBlockPoint:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (2, self.num_groups):
            raise ValueError(f"weights must have shape {(2, self.num_groups)}")
        return TwoBlockPoint(w[0], w[1])

    def jacobian_norm_bound(self) -> float:
        return 1.0

    def curvature_bound(self) -> float:
        return 0.0


def random_extractor(
    height: int,
    width: int,
    num_layers: int = 4,
    channels: int = 8,
    kernel: int = 3,
    act_delta: float = 0.01,
    seed: int = 0,
) -> FeatureExtractor:
    """Desk-scale extractor with random weights normalized to unit layer bounds."""
    rng = np.random.default_rng(seed)
    weights = []
    in_ch = 2
    for l in range(num_layers):
        out_ch = channels
        w = rng.standard_normal((out_ch, in_ch, kernel, kernel))
        w *= np.sqrt(2.0 / (in_ch * kernel * kernel + out_ch))
        weights.append(w)
        in_ch = out_ch
    g = FeatureExtractor(height, width, weights, act_delta)
    # rescale each layer so its operator-norm bound is 1; keeps features
    # and the exported Lipschitz estimate at a testable scale
    for w, b in zip(g.weights, g._layer_bounds()):
        w /= b
    return g

"""Fixed-weight convolutional feature extractors with hand-written VJPs.

The extractor maps a two-block point (two flattened images) to a
channel-major (channels, num_pixels) grouped-feature matrix: stride-1,
zero-padded convolutions with a smoothed-ReLU activation between layers
and a linear final layer.  Weights are fixed inputs, never trained here.
No other module of the package builds that layout; :func:`group_norms` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import TwoBlockPoint, scratch

# (r, block=None) -> J^T(F * r): the extractor Jacobian's pullback of its
# features F scaled by one factor per group (a scalar scales them all), as
# a two-block point, or only block 0 (x1) or 1 (x2) of it as a fresh array
# when block is given; with the group norms, all the smoothed l2,1 term
# reads of an extractor
WeightedPullback = Callable[..., TwoBlockPoint | np.ndarray]


def group_norms(features: np.ndarray) -> np.ndarray:
    """Column-wise Euclidean norms of a (group_dim, num_groups) feature matrix.

    One einsum over the channels.  For group_dim below 8 it adds each
    column's squares in order, so the norms are bit-identical to
    ``np.sqrt(np.sum(g * g, axis=1))`` for ``g = features.T`` stored
    contiguously; from 8 on they agree with it within a few ulps.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (group_dim, num_groups) matrix")
    return np.sqrt(np.einsum("ij,ij->j", features, features))


def smoothed_relu(x, act_delta: float):
    """C1 piecewise-quadratic ReLU surrogate with transition width act_delta.

    0 below -act_delta, x above act_delta and (x + act_delta)^2/(4 act_delta)
    in between, evaluated as max(x, act_delta * s^2) with s the derivative
    from :func:`smoothed_relu_deriv`: exact outside the band, and within a
    few ulps of act_delta of the quadratic inside it.
    """
    x = np.asarray(x, dtype=np.float64)
    return _activate(x, smoothed_relu_deriv(x, act_delta), act_delta)


def smoothed_relu_deriv(x, act_delta: float):
    """Derivative of :func:`smoothed_relu`; continuous at both breakpoints.

    Always a fresh array.
    """
    if not act_delta > 0:
        raise ValueError("act_delta must be positive")
    x = np.asarray(x, dtype=np.float64)
    # the mid-branch line reads exactly 0 at -d and 1 at d, so clipping it
    # equals the three-branch form bit for bit
    s = np.divide(x, 2.0 * act_delta, out=np.empty(x.shape))
    s += 0.5
    return np.clip(s, 0.0, 1.0, out=s)


def _activate(z: np.ndarray, s: np.ndarray, act_delta: float) -> np.ndarray:
    """The smoothed ReLU of z from its derivative s at z, as a fresh array."""
    a = np.multiply(s, s, out=np.empty(s.shape))
    a *= act_delta
    return np.maximum(z, a, out=a)


def _conv(x: np.ndarray, w: np.ndarray, pitch: int) -> np.ndarray:
    """Stride-1 zero-padded correlation of (in,h,wd) by (out,in,kh,kw), as
    the first wd columns of an (out, h, pitch) array; pitch >= wd + kw - 1.

    One GEMM over a column matrix of the kh*kw shifted windows.  Each
    input channel is stored zero-padded and flattened in rows of pitch
    values, so the window of tap (dy, dx) is the contiguous slice of
    h*pitch values from dy*pitch + dx, and all windows are one strided
    view, copied into the column matrix in one call.  The GEMM also
    computes pitch - wd columns per row whose windows wrap around into the
    padding and the next row; their values are never used.  The padded input, the column matrix and the GEMM output
    live in this thread's scratch, and the result is that output: the
    next convolution with the same output shape overwrites it.
    """
    out_ch, in_ch, kh, kw = w.shape
    _, h, wd = x.shape
    if pitch < wd + kw - 1:
        raise ValueError(f"pitch {pitch} is below {wd + kw - 1}")
    n = h * pitch

    def make():
        # the last window ends kw - 1 values past the padded rows; the
        # border and that tail are zeroed once and never written again
        flat = np.zeros((in_ch, (h + kh - 1) * pitch + kw - 1))
        padded = flat[:, : (h + kh - 1) * pitch].reshape(in_ch, h + kh - 1, pitch)
        step = flat.itemsize
        windows = as_strided(
            flat, (in_ch, kh, kw, n), (flat.strides[0], pitch * step, step, step), writeable=False
        )
        return padded, windows, np.empty((in_ch, kh, kw, n))

    # the GEMM output has its own key, so convolutions that differ only in
    # their output channels share the larger input buffers
    padded, windows, cols = scratch(("conv", in_ch, kh, kw, h, wd, pitch), make)
    (out,) = scratch(("conv", out_ch, h, pitch), lambda: (np.empty((out_ch, h, pitch)),))
    padded[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + wd] = x
    np.copyto(cols, windows)
    np.matmul(w.reshape(out_ch, -1), cols.reshape(-1, n), out=out.reshape(out_ch, n))
    return out


def _adjoint_kernel(w: np.ndarray) -> np.ndarray:
    """The kernel whose correlation is the adjoint of correlating with w.

    For odd kernel sides under "same" zero padding that is w flipped in
    space with its channel axes swapped, as a view of w.
    """
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _group_scales(r, num_groups: int) -> np.ndarray:
    """r as float64: one scale per group, or one scale for all of them."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape not in ((), (num_groups,)):
        raise ValueError(f"scales must be a scalar or have shape {(num_groups,)}")
    return r


def _layer_bounds(weights: Sequence[np.ndarray]) -> list[float]:
    """Spectral-norm bound per layer: the sum over kernel taps of the
    per-tap (out, in) matrix spectral norm.  Activations are 1-Lipschitz,
    so they do not enter."""
    bounds = []
    for w in weights:
        taps = w.reshape(w.shape[0], w.shape[1], -1).transpose(2, 0, 1)
        # summed in tap order, as a per-tap loop would; np.sum adds pairwise
        bounds.append(sum(np.linalg.norm(taps, 2, axis=(1, 2)).tolist()))
    return bounds


class FeatureExtractor:
    """Layered convolution/activation map over the channel-stacked image pair.

    ``weights`` is a sequence of (out_ch, in_ch, kh, kw) kernels; the
    first layer must take 2 input channels and kernel sides must be odd
    so the adjoint of each zero-padded correlation is the flipped-kernel
    correlation.  The kernels are copied read-only at construction, so
    the map, and with it every bound, is fixed for the extractor's life.
    """

    def __init__(self, height: int, width: int, weights: Sequence[np.ndarray], act_delta: float):
        if not 0 < act_delta < np.inf:
            raise ValueError("act_delta must be positive and finite")
        if not weights:
            raise ValueError("at least one layer is required")
        ws = tuple(np.array(w, dtype=np.float64) for w in weights)
        in_ch = 2
        for i, w in enumerate(ws):
            if w.ndim != 4:
                raise ValueError(f"layer {i}: kernel must be 4-d")
            if w.shape[0] == 0:
                raise ValueError(f"layer {i}: kernel must have at least one output channel")
            if w.shape[1] != in_ch:
                raise ValueError(
                    f"layer {i}: expected {in_ch} input channels, got {w.shape[1]}"
                )
            if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
                raise ValueError(f"layer {i}: kernel sides must be odd")
            in_ch = w.shape[0]
            w.flags.writeable = False
        self.height = int(height)
        self.width = int(width)
        self.weights = ws
        self.act_delta = float(act_delta)
        self._adjoints = tuple(_adjoint_kernel(w) for w in ws)
        self._pitch = self.width + max(w.shape[3] for w in ws) - 1

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

        Runs one forward pass, which evaluates each hidden layer's
        activation derivative once and keeps it, so the returned pullback
        (grouped weights w -> TwoBlockPoint) runs only the adjoint
        convolutions and the products with the kept derivatives.
        """
        d, wd, pitch = self.act_delta, self.width, self._pitch
        # every layer's arrays share one row pitch, so a kept derivative
        # lines up with the adjoint convolution's output, columns past wd
        # included, and both are multiplied as contiguous arrays
        a = self._stack(X)
        derivs = []
        for wk in self.weights[:-1]:
            z = _conv(a, wk, pitch)
            s = smoothed_relu_deriv(z, d)
            derivs.append(s)
            a = _activate(z, s, d)[:, :, :wd]
        feats = _conv(a, self.weights[-1], pitch)[:, :, :wd].copy().reshape(self.group_dim, -1)
        adjoints = self._adjoints

        def pullback(w: np.ndarray) -> TwoBlockPoint:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (self.group_dim, self.num_groups):
                raise ValueError(
                    f"weights must have shape {(self.group_dim, self.num_groups)}"
                )
            g = _conv(w.reshape(self.group_dim, self.height, wd), adjoints[-1], pitch)
            for wk, s in zip(reversed(adjoints[:-1]), reversed(derivs)):
                g *= s
                g = _conv(g[:, :, :wd], wk, pitch)
            return TwoBlockPoint(g[0, :, :wd].flatten(), g[1, :, :wd].flatten())

        return feats, pullback

    def linearize_groups(self, X: TwoBlockPoint) -> tuple[np.ndarray, WeightedPullback]:
        """The group norms at X and the weighted pullback r -> J^T(F * r).

        One forward pass, as :meth:`linearize`; r holds one scale per
        group (a scalar scales them all), and each call is one pullback,
        which gives both blocks or, with ``block``, that one of them.
        """
        feats, pullback = self.linearize(X)
        n = self.num_groups

        def weighted_pullback(r, block=None):
            g = pullback(feats * _group_scales(r, n))
            return g if block is None else (g.x1, g.x2)[block]

        return group_norms(feats), weighted_pullback

    def forward(self, X: TwoBlockPoint) -> np.ndarray:
        """Grouped features, shape (group_dim, num_groups)."""
        return self.linearize(X)[0]

    def vjp(self, X: TwoBlockPoint, w: np.ndarray) -> TwoBlockPoint:
        """Pullback of the extractor Jacobian applied to grouped weights w."""
        return self.linearize(X)[1](w)

    @cached_property
    def _bounds(self) -> list[float]:
        # on first use, so construction computes no spectral norms
        return _layer_bounds(self.weights)

    def jacobian_norm_bound(self) -> float:
        """Upper bound on the operator norm of the extractor Jacobian."""
        return float(np.prod(self._bounds))

    def curvature_bound(self) -> float:
        """Upper bound on the second derivative of the extractor map.

        Each activation layer contributes its curvature 1/(2*act_delta)
        scaled by the squared bound of the layers before it and the
        bound of the layers after it.
        """
        bounds = self._bounds
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

    def _check(self, X: TwoBlockPoint) -> None:
        n = self.num_groups
        if X.n != n or X.m != n:
            raise ValueError(f"expected two blocks of length {n}")

    def forward(self, X: TwoBlockPoint) -> np.ndarray:
        self._check(X)
        return np.stack([X.x1, X.x2])

    def linearize_groups(self, X: TwoBlockPoint) -> tuple[np.ndarray, WeightedPullback]:
        """The group norms sqrt(x1*x1 + x2*x2) and r -> (x1*r, x2*r).

        Bit for bit what :func:`group_norms` of the stacked features and
        the pullback of the weighted features give: for two rows its
        einsum adds the two squares in order.  With ``block`` the pullback
        forms only that block's product.
        """
        self._check(X)
        x1, x2, n = X.x1, X.x2, self.num_groups
        norms = x1 * x1
        norms += x2 * x2
        np.sqrt(norms, out=norms)

        def weighted_pullback(r, block=None):
            r = _group_scales(r, n)
            if block is None:
                return TwoBlockPoint(x1 * r, x2 * r)
            return (x1, x2)[block] * r

        return norms, weighted_pullback

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
    # scale each layer so its operator-norm bound is 1; keeps features
    # and the exported Lipschitz estimate at a testable scale
    for w, b in zip(weights, _layer_bounds(weights)):
        w /= b
    return FeatureExtractor(height, width, weights, act_delta)

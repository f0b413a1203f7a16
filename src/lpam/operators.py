"""Measurement operators and synthetic instance generation.

The masked DFT uses unitary normalization in both directions so the
fidelity gradient has Lipschitz constant at most 1 for any binary mask.
Instances are fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import scratch, store_floats


def _dft_buffers(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    # per image shape: the two per-axis passes of a pair transform in turn
    return scratch(
        ("dft", shape),
        lambda: (np.empty(shape, np.complex128), np.empty(shape, np.complex128)),
    )


@dataclass(frozen=True, eq=False)
class MaskedDft:
    """Undersampled 2-d DFT measurement operator for one image channel.

    The one-channel methods are the plain masked ``fft2``/``ifft2``
    formulas.  The pair kernels serve two real channels with one complex
    transform, each the two per-axis passes ``fft2``/``ifft2`` make, in
    this thread's scratch; their data and residuals are vectors over the
    sampled frequencies in flat (row-major) order (:meth:`sample` and
    :meth:`unsample` map between those and full arrays), and they agree
    with the one-channel methods to rounding, relative to each channel's
    own norm.  Returned arrays are always fresh.
    """

    mask: np.ndarray  # boolean, shape (height, width)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 2:
            raise ValueError("mask must be a 2-d boolean matrix")
        object.__setattr__(self, "mask", m)
        # flat indices of the sampled frequencies k and of their mirrors
        # -k (mod the shape), the mirrors' rows and columns formed in place
        # from the sampled ones: no array larger than those is made
        h, w = m.shape
        on = np.flatnonzero(m)
        rows, cols = np.divmod(on, w)
        np.negative(rows, out=rows)
        rows %= h
        rows *= w
        np.negative(cols, out=cols)
        cols %= w
        rows += cols
        object.__setattr__(self, "_on", on)
        object.__setattr__(self, "_mirror", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def n(self) -> int:
        return self.mask.size

    def _image(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.size != self.n:
            raise ValueError(f"expected image vector of length {self.n}, got {x.size}")
        return x.reshape(self.shape)

    def _masked(self, f: np.ndarray) -> np.ndarray:
        """k-space data f on the sampled frequencies and zero elsewhere."""
        if np.shape(f) != self.shape:
            raise ValueError("k-space data shape does not match mask")
        return np.where(self.mask, f, 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Masked unitary DFT of a flattened image; zero outside the mask."""
        return np.where(self.mask, np.fft.fft2(self._image(x), norm="ortho"), 0.0)

    def adjoint(self, f: np.ndarray) -> np.ndarray:
        """Real part of the inverse unitary DFT of masked k-space data."""
        return np.fft.ifft2(self._masked(f), norm="ortho").real.flatten()

    def adjoint_sampled(self, y: np.ndarray) -> np.ndarray:
        """:meth:`adjoint` of the values y at the sampled frequencies, bit
        for bit, from their :meth:`unsample` array with no masked copy."""
        return np.fft.ifft2(self.unsample(y), norm="ortho").real.flatten()

    def residual(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Masked DFT of x minus the data f on the sampled frequencies."""
        resid = self.forward(x)
        # subtract a masked copy, not f itself: data off the mask, even a
        # signalling NaN, must neither reach the result nor raise a warning
        resid -= self._masked(f)
        return resid

    def sample(self, f: np.ndarray) -> np.ndarray:
        """The entries of full (height, width) k-space data f at the sampled
        frequencies, a fresh vector in flat (row-major) order, of f's dtype.
        Entries off the mask are never read, so not even a signalling NaN
        there raises a warning."""
        if np.shape(f) != self.shape:
            raise ValueError("k-space data shape does not match mask")
        return np.asarray(f).reshape(-1)[self._on]

    def unsample(self, y: np.ndarray) -> np.ndarray:
        """The full (height, width) complex array holding the values y at
        the sampled frequencies and zero elsewhere, which :meth:`sample`
        takes back to y."""
        f = np.zeros(self.shape, np.complex128)
        f.reshape(-1)[self._on] = self._sampled(y)
        return f

    def _sampled(self, r: np.ndarray) -> np.ndarray:
        """A vector over the sampled frequencies, residual or data, as a
        complex vector."""
        r = np.ascontiguousarray(r, dtype=np.complex128)
        if r.shape != self._on.shape:
            raise ValueError(f"expected {self._on.size} sampled frequencies, got shape {r.shape}")
        return r

    def residual_pair(
        self, x1: np.ndarray, x2: np.ndarray, y1: np.ndarray, y2: np.ndarray, *, dots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The residuals of two real images against their data, on the
        sampled frequencies only, from one transform of x1 + i s x2.

        A real signal's spectrum is Hermitian, so the packed spectrum Z
        splits as F1[k] = (Z[k] + conj Z[-k]) / 2 and
        s F2[k] = -i (Z[k] - conj Z[-k]) / 2.  The data y1, y2 are the
        values at the sampled frequencies, vectors in flat order as
        :meth:`sample` gathers them and :class:`KSpaceData` holds them,
        so they are neither gathered nor checked against the mask here.
        ``dots`` are the images' squared norms dot(x, x) when the caller
        holds them; otherwise they are taken here.
        """
        x1, x2 = self._image(x1), self._image(x2)
        y1, y2 = self._sampled(y1), self._sampled(y2)
        s, w1, w2 = _balance(x1.reshape(-1), x2.reshape(-1), dots)
        buf, spare = _dft_buffers(self.shape)
        np.copyto(buf.real, x1)
        np.multiply(x2, s, out=buf.imag)
        np.fft.fft(buf, axis=1, norm="ortho", out=spare)
        np.fft.fft(spare, axis=0, norm="ortho", out=buf)
        z = buf.reshape(-1)
        zk, zm = z[self._on], z[self._mirror]
        r1 = zk + zm.conj()
        r2 = np.empty_like(zk)
        np.add(zk.imag, zm.imag, out=r2.real)
        np.subtract(zm.real, zk.real, out=r2.imag)
        r1.view(np.float64)[:] *= 0.5 * w1
        r2.view(np.float64)[:] *= 0.5 * w2
        r1 -= y1
        r2 -= y2
        return r1, r2

    def adjoint_pair(
        self, r1: np.ndarray, r2: np.ndarray, *, dots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The adjoints of two residuals from :meth:`residual_pair`, real
        image vectors, from one inverse transform.

        The spectrum holds the Hermitian parts of both, (R1 + i s R2) / 2
        at k plus (conj R1 + i s conj R2) / 2 at -k, so the real part of
        its inverse is the first adjoint and the imaginary part s times
        the second.  ``dots`` are the residuals' squared norms,
        :func:`squared_norm` of each, when the caller holds them.
        """
        r1, r2 = self._sampled(r1), self._sampled(r2)
        s, w1, w2 = _balance(r1.view(np.float64), r2.view(np.float64), dots)
        t = (r2.view(np.float64) * s).view(np.complex128) if s != 1.0 else r2
        at_k, at_mirror = np.empty_like(r1), np.empty_like(r1)
        np.subtract(r1.real, t.imag, out=at_k.real)
        np.add(r1.imag, t.real, out=at_k.imag)
        np.add(r1.real, t.imag, out=at_mirror.real)
        np.subtract(t.real, r1.imag, out=at_mirror.imag)
        at_k.view(np.float64)[:] *= 0.5
        at_mirror.view(np.float64)[:] *= 0.5
        buf, spare = _dft_buffers(self.shape)
        spec = buf.reshape(-1)
        spec.fill(0.0)
        spec[self._on] = at_k
        spec[self._mirror] += at_mirror  # mirrors are distinct: no lost updates
        np.fft.ifft(buf, axis=1, norm="ortho", out=spare)
        np.fft.ifft(spare, axis=0, norm="ortho", out=buf)
        g1, g2 = buf.real.flatten(), buf.imag.flatten()
        if w1 != 1.0:
            g1 *= w1
        if w2 != 1.0:
            g2 *= w2
        return g1, g2

    def fidelity(self, x: np.ndarray, f: np.ndarray) -> float:
        """Half squared residual on the sampled frequencies."""
        return residual_energy(self.residual(x, f))

    def grad_fidelity(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Adjoint gradient of the fidelity, a real image vector."""
        return self.adjoint(self.residual(x, f))


def squared_norm(resid: np.ndarray) -> float:
    """Squared norm of a k-space residual, full or on the sampled
    frequencies, as one dot product over its float view."""
    v = np.ascontiguousarray(resid).reshape(-1).view(np.float64)
    return float(np.dot(v, v))


def residual_energy(resid: np.ndarray) -> float:
    """Half squared norm of a k-space residual: the fidelity value."""
    return 0.5 * squared_norm(resid)


def _log2_norm(v: np.ndarray, n2: float) -> float:
    """The binary exponent of the 2-norm of a real vector v whose squared
    norm dot(v, v) is n2, about log2 of it: -inf when v is zero, NaN when
    it is not finite.  v is read only when n2 overflows or underflows."""
    shift = 0
    if n2 == math.inf or (n2 == 0.0 and v.any()):
        # the squares overflow or underflow: count them rescaled
        shift = 600 if n2 else -600
        with np.errstate(over="ignore"):
            v = np.ldexp(v, -shift)
            n2 = float(np.dot(v, v))
    if n2 == 0.0:
        return -math.inf
    if not n2 < math.inf:
        return math.nan
    return (math.frexp(n2)[1] + 1) // 2 + shift


def _balance(v1: np.ndarray, v2: np.ndarray, dots=None) -> tuple[float, float, float]:
    """How two real vectors share one transform, as v1 + i s v2: the
    factor s and the factors w1, w2 that take each channel back out.

    s is a power of two that brings the norm of s v2 near that of v1, so
    each channel's rounding error stays relative to its own norm; it is
    clamped so that s v2 and 1/s stay finite, and scaling by it is exact.
    w1 is 1 and w2 is 1/s, but 0 for a zero vector, whose part is then
    exactly zero.  s, w1 and w2 are all 1 when either vector is not finite.
    ``dots`` are dot(v1, v1) and dot(v2, v2) when the caller holds them.
    """
    if dots is None:
        with np.errstate(over="ignore"):
            dots = np.dot(v1, v1), np.dot(v2, v2)
    e1, e2 = _log2_norm(v1, float(dots[0])), _log2_norm(v2, float(dots[1]))
    if math.isnan(e1) or math.isnan(e2):
        return 1.0, 1.0, 1.0
    s = 1.0
    if e1 > -math.inf and e2 > -math.inf:
        s = math.ldexp(1.0, min(max(e1 - e2, -1022), 1000 - e2, 1023))
    return s, float(e1 > -math.inf), 1.0 / s if e2 > -math.inf else 0.0


@dataclass(frozen=True, eq=False)
class KSpaceData:
    """Measured k-space data of the two channels, held only at the
    sampled frequencies of ``dft``.

    ``y1`` and ``y2`` are complex vectors of the values at those
    frequencies, in the operator's flat (row-major) order, as
    :meth:`MaskedDft.sample` gathers them from full arrays and
    :meth:`MaskedDft.residual_pair` takes them.  ``f1`` and ``f2`` are
    the full (height, width) arrays, zero off the mask, built read-only
    on each access: for files and one-off calls, not for loops.
    """

    dft: MaskedDft
    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y1", self.dft._sampled(self.y1))
        object.__setattr__(self, "y2", self.dft._sampled(self.y2))

    @property
    def f1(self) -> np.ndarray:
        return self._full(self.y1)

    @property
    def f2(self) -> np.ndarray:
        return self._full(self.y2)

    def _full(self, y: np.ndarray) -> np.ndarray:
        f = self.dft.unsample(y)
        f.flags.writeable = False
        return f


def uniform_mask(height: int, width: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform random sampling mask hitting round(ratio*N) frequencies."""
    _check_ratio(ratio)
    n = height * width
    count = max(1, round(ratio * n))
    idx = rng.choice(n, size=count, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask.reshape(height, width)


# samples per pass of radial_mask's spoke drawing, which bounds its
# temporary arrays near 0.5 MB each at any image size
_SPOKE_SAMPLES = 2**16

# off-grid samples per pass below which rounding them one by one costs
# less than drawing their runs as segments, which take about 30 us a pass
# (2-vCPU Xeon VM).  At ratio 0.3 a 32^2 mask rounds every run one by one
# and a 128^2 one draws every run as segments
_RUN_SAMPLES = 2**12


def _spoke_pixels(t, sin, cos, height: int, width: int) -> np.ndarray:
    """The flat index of the pixel each sample t of each spoke (a row of
    sin and cos) is rounded and clipped onto."""
    ys = t * sin
    ys += height // 2
    np.rint(ys, out=ys)
    np.maximum(ys, 0, out=ys)
    np.minimum(ys, height - 1, out=ys)
    xs = t * cos
    xs += width // 2
    np.rint(xs, out=xs)
    np.maximum(xs, 0, out=xs)
    np.minimum(xs, width - 1, out=xs)
    ys *= width
    ys += xs  # exact: flat indices are far below 2**53
    return ys.astype(np.intp)


def _spoke_samples(height: int, width: int) -> tuple[np.ndarray, int, int]:
    """The samples ts of every spoke, and the range lo:hi of those within
    reach of the grid: the ones before lo and from hi on lie off it."""
    radius = float(np.hypot(height, width))
    ts = np.arange(-radius, radius, 0.5)
    # The pixels' squares span [-0.5, height - 0.5] x [-0.5, width - 0.5],
    # within hypot(cy + 0.5, cx + 0.5) of the center (cy, cx).  A sample
    # farther out, with a margin for rounding, has a coordinate beyond that
    # span, which rounds onto its clip bound and stays there further out.
    reach = math.hypot(height // 2 + 0.5, width // 2 + 0.5) + 1.0
    return ts, int(np.searchsorted(ts, -reach)), int(np.searchsorted(ts, reach, side="right"))


def _draw_spokes(mask: np.ndarray, num_spokes: int, ts: np.ndarray, lo: int, hi: int) -> None:
    """Set mask to the pixels of num_spokes spokes at equal angles, each
    sampled at ts.

    The samples ts[lo:hi] are rounded one by one.  The runs before and
    after them lie off the grid, so on each run one coordinate stays at its
    clip bound while the other, monotone in t and changing by at most 1 a
    sample, takes every value between its ends: the run covers the segment
    of a row or a column between the pixels of its first and last sample.
    Runs too short to repay that (:data:`_RUN_SAMPLES`) are rounded one by
    one too.
    """
    height, width = mask.shape
    flat = mask.reshape(-1)
    flat[:] = False
    per = max(1, _SPOKE_SAMPLES // ts.size)  # spokes drawn per pass
    if min(num_spokes, per) * (ts.size - (hi - lo)) < _RUN_SAMPLES:
        lo, hi = 0, ts.size
    # the samples rounded one by one, then the first and last of each run
    runs = ([lo - 1, 0] if lo else []) + ([hi, ts.size - 1] if hi < ts.size else [])
    t = np.concatenate((ts[lo:hi], ts[runs]))
    angles = np.pi * np.arange(num_spokes) / num_spokes
    for j in range(0, num_spokes, per):
        a = angles[j : j + per, None]
        px = _spoke_pixels(t, np.sin(a), np.cos(a), height, width)
        flat[px.ravel()] = True  # the runs' ends too, which their segments hold
        if runs:
            first, last = px[:, hi - lo :].reshape(-1, 2).T
            start, span = np.minimum(first, last), np.abs(last - first)
            # a segment down a column spans whole rows, one along a row less
            step = np.where(span < width, 1, width)
            span //= step
            k = np.minimum(np.arange(span.max() + 1), span[:, None])
            k *= step[:, None]
            k += start[:, None]
            flat[k.ravel()] = True  # a short segment repeats its last pixel


def _coverage_bound(num_spokes: int, height: int, width: int) -> float:
    """An upper bound on the pixels that num_spokes spokes cover.

    The border holds 2 (height + width) - 4 pixels.  Inside it, a spoke's
    pixels come from consecutive samples, as each coordinate is monotone
    along the spoke, and form a path that steps at most 1 in each
    coordinate a sample: at most 1 + dy + dx pixels, where dy and dx bound
    the ranges of its rows and columns.  Its samples inside have
    |t sin| <= cy - 0.5 and |t cos| <= cx - 0.5, which bound |t| and so
    the ranges.  Each spoke runs from the center out past the box of
    half-side r about it both ways, through at least 2r + 1 of the box's
    pixels, so inside the border the spokes cover at most the box's
    (2r + 1)^2 and 1 + dy + dx - (2r + 1) pixels each outside it; r is
    num_spokes // 4, or less where the box would reach the border.
    """
    if min(height, width) < 3:
        return height * width
    cy, cx = height // 2, width // 2
    a = np.pi * np.arange(num_spokes) / num_spokes
    sin, cos = np.abs(np.sin(a)), np.abs(np.cos(a))
    # the margins cover the rounding of the samples and of this bound
    with np.errstate(divide="ignore"):
        t = np.minimum((cy - 0.5 + 1e-6) / sin, (cx - 0.5 + 1e-6) / cos)
    dy = np.minimum(np.floor(2 * t * sin + 1e-6) + 1, height - 3)
    dx = np.minimum(np.floor(2 * t * cos + 1e-6) + 1, width - 3)
    box = 2 * min(num_spokes // 4, cy - 1, height - 2 - cy, cx - 1, width - 2 - cx) + 1
    return 2 * (height + width) - 4 + box * box + float(np.maximum(1 + dy + dx - box, 0).sum())


def radial_mask(height: int, width: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Pseudo-radial mask: straight spokes through the grid center.

    Spokes at equal angles are accumulated until the target count is
    reached, then random sampled points are dropped (or unsampled points
    added) so the achieved ratio matches round(ratio*N)/N.  Frequencies
    are laid out with the zero frequency at the center before being
    shifted back to FFT order.
    """
    _check_ratio(ratio)
    n = height * width
    target = max(1, round(ratio * n))
    cy, cx = height // 2, width // 2
    max_spokes = 4 * max(height, width)

    mask = np.zeros((height, width), dtype=bool)
    ts, lo, hi = _spoke_samples(height, width)
    # Both clipped coordinates of a spoke are monotone in t, so it covers
    # at most height + width - 1 pixels and S spokes at most S times that.
    # Every S below ceil(target / (height + width - 1)) ends below the
    # target, so starting there stops at the same S as starting from 1.
    num_spokes = min(-(-target // (height + width - 1)), max_spokes)
    # Nor does any S whose coverage bound is below the target reach it.
    while num_spokes < max_spokes and _coverage_bound(num_spokes, height, width) < target:
        num_spokes += 1
    while True:
        _draw_spokes(mask, num_spokes, ts, lo, hi)
        count = np.count_nonzero(mask)
        if count >= target or num_spokes >= max_spokes:
            break
        num_spokes += 1

    flat = mask.ravel()
    if count > target:
        on = np.flatnonzero(flat)
        center = cy * width + cx
        on = on[on != center]  # keep the zero frequency sampled
        drop = rng.choice(on, size=count - target, replace=False)
        flat[drop] = False
    elif count < target:
        off = np.flatnonzero(~flat)
        add = rng.choice(off, size=target - count, replace=False)
        flat[add] = True
    return np.fft.ifftshift(flat.reshape(height, width))


def _check_ratio(ratio: float) -> None:
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"sampling ratio must be in (0, 1], got {ratio}")


def shared_structure_phantom(
    height: int, width: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant phantom pair with shared support and private details.

    Both channels carry the same ellipse and rectangle at different
    intensities; each channel additionally gets one small private blob.
    Pixel values lie in [0, 1] and the background is exactly zero, so the
    pair is jointly sparse.
    """
    # a column of row coordinates and a row of column coordinates, which
    # each shape below broadcasts to the full grid
    yy = np.arange(height, dtype=np.float64)[:, None]
    xx = np.arange(width, dtype=np.float64)
    img1 = np.zeros((height, width))
    img2 = np.zeros((height, width))

    # shared ellipse
    cy = height * (0.35 + 0.1 * rng.random())
    cx = width * (0.4 + 0.1 * rng.random())
    ry = height * (0.12 + 0.05 * rng.random())
    rx = width * (0.16 + 0.05 * rng.random())
    ell = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    img1[ell] = 0.9
    img2[ell] = 0.6

    # shared rectangle
    ry0 = int(height * (0.6 + 0.05 * rng.random()))
    rx0 = int(width * (0.55 + 0.05 * rng.random()))
    rh = max(2, int(height * 0.12))
    rw = max(2, int(width * 0.18))
    rect = np.zeros_like(ell)
    rect[ry0 : min(ry0 + rh, height), rx0 : min(rx0 + rw, width)] = True
    img1[rect] = 0.5
    img2[rect] = 1.0

    # one small private blob per channel
    for img, level in ((img1, 0.7), (img2, 0.8)):
        by = height * (0.15 + 0.6 * rng.random())
        bx = width * (0.15 + 0.6 * rng.random())
        br = max(1.5, 0.05 * min(height, width))
        blob = (yy - by) ** 2 + (xx - bx) ** 2 <= br**2
        img[blob] = level

    return img1, img2


# the largest image side an instance may have; a larger one is refused
# before any array is made
MAX_SIDE = 4096


@dataclass(frozen=True)
class InstanceSpec:
    """A synthetic joint-recovery instance, checked when made (``ValueError`` if invalid).

    Image sides are ints from 2 to :data:`MAX_SIDE`; ``ratio`` and
    ``noise_std`` are kept as floats.
    """

    height: int
    width: int
    mask_type: str = "radial"  # "radial" | "uniform"
    ratio: float = 0.3
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        store_floats(self, ("ratio", "noise_std"))
        _check_ratio(self.ratio)
        for name in ("height", "width"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"{name} must be an integer, got {n!r}")
        if self.height < 2 or self.width < 2:
            raise ValueError("image dimensions must be at least 2x2")
        if self.height > MAX_SIDE or self.width > MAX_SIDE:
            raise ValueError(
                f"image sides must be at most {MAX_SIDE}, got {self.height}x{self.width}"
            )
        if self.mask_type not in ("radial", "uniform"):
            raise ValueError(f"unknown mask type {self.mask_type!r}")
        if not (0 <= self.noise_std < math.inf):
            raise ValueError("noise_std must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class Instance:
    truth1: np.ndarray
    truth2: np.ndarray
    dft: MaskedDft
    kspace: KSpaceData

    @property
    def achieved_ratio(self) -> float:
        return float(self.dft.mask.mean())


def generate_instance(spec: InstanceSpec, seed: int) -> Instance:
    """Deterministically build phantoms, mask and noisy k-space data."""
    rng = np.random.default_rng(seed)
    truth1, truth2 = shared_structure_phantom(spec.height, spec.width, rng)
    if spec.mask_type == "radial":
        mask = radial_mask(spec.height, spec.width, spec.ratio, rng)
    else:
        mask = uniform_mask(spec.height, spec.width, spec.ratio, rng)
    dft = MaskedDft(mask)

    chans = []
    for truth in (truth1, truth2):
        y = dft.sample(dft.forward(truth.ravel()))
        if spec.noise_std > 0:
            # drawn full-shape, so the generator's stream does not depend on
            # the mask, and only the sampled draws are kept
            re = dft.sample(rng.standard_normal(mask.shape))
            im = dft.sample(rng.standard_normal(mask.shape))
            y += spec.noise_std * (re + 1j * im)
        chans.append(y)
    return Instance(truth1, truth2, dft, KSpaceData(dft, chans[0], chans[1]))

"""Measurement operators and synthetic instance generation.

The masked DFT uses unitary normalization in both directions so the
fidelity gradient has Lipschitz constant at most 1 for any binary mask.
Instances are fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _dot, scratch, store_floats


def _dft_buffers(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    # per image shape: the two per-axis passes of a pair transform in turn
    return scratch(
        ("dft", shape),
        lambda: (np.empty(shape, np.complex128), np.empty(shape, np.complex128)),
    )


@dataclass(frozen=True, eq=False)
class MaskedDft:
    """Undersampled 2-d DFT measurement operator for one image channel.

    Every transform is the masked unitary ``fft2``/``ifft2`` formula bit
    for bit, through one forward pass (:meth:`_spectrum`) and one inverse
    (:meth:`_inverse`) in this thread's DFT scratch, two complex images
    per shape kept for the thread's life.  The pair kernels serve two
    real channels with one complex transform and agree with the
    one-channel methods to rounding, relative to each channel's own norm.
    Sampled data and residuals are vectors over the sampled frequencies
    in flat (row-major) order; :meth:`sample` and :meth:`unsample` map
    them to and from full arrays.  The mask is held as a read-only copy,
    and returned arrays are always fresh.  A solve calls only the pair
    kernels and the sampled one-channel transforms; the one-channel
    methods on full arrays serve the per-call objective terms, the
    benchmark and the tests.
    """

    mask: np.ndarray  # boolean, shape (height, width)

    def __post_init__(self):
        m = np.array(self.mask, dtype=bool)  # a copy: the caller's array may change
        if m.ndim != 2:
            raise ValueError("mask must be a 2-d boolean matrix")
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)
        # flat indices of the sampled frequencies k and of their mirrors
        # -k (mod the shape), the mirrors' rows and columns formed in place
        # from the sampled ones: no array larger than those is made.  For
        # 0 <= r < h, -r mod h is h - r, save 0 at r = 0, so past the one
        # divmod no integer modulo is taken
        h, w = m.shape
        on = np.flatnonzero(m)
        rows, cols = np.divmod(on, w)
        np.subtract(h, rows, out=rows)
        rows[rows == h] = 0
        rows *= w
        np.subtract(w, cols, out=cols)
        cols[cols == w] = 0
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

    def _spectrum(self, x1: np.ndarray, x2=None, s: float = 1.0) -> np.ndarray:
        """The flat spectrum of the image x1 + i s x2 (of x1 alone without
        x2), a scratch view: the last axis is transformed first."""
        buf, spare = _dft_buffers(self.shape)
        if x2 is None:
            buf[...] = x1  # a real value casts to imaginary part +0.0
        else:
            np.copyto(buf.real, x1)
            np.multiply(x2, s, out=buf.imag)
        np.fft.fft(buf, axis=1, norm="ortho", out=spare)
        np.fft.fft(spare, axis=0, norm="ortho", out=buf)
        return buf.reshape(-1)

    def _inverse(self, at_k: np.ndarray, at_mirror=None) -> np.ndarray:
        """The flat inverse of the spectrum holding at_k at the sampled
        frequencies, plus at_mirror at their mirrors, a scratch view."""
        buf, spare = _dft_buffers(self.shape)
        spec = buf.reshape(-1)
        spec.fill(0.0)
        spec[self._on] = at_k
        if at_mirror is not None:
            spec[self._mirror] += at_mirror  # mirrors are distinct: no lost updates
        np.fft.ifft(buf, axis=1, norm="ortho", out=spare)
        np.fft.ifft(spare, axis=0, norm="ortho", out=buf)
        return spec

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Masked unitary DFT of a flattened image; zero outside the mask."""
        return self.unsample(self.forward_sampled(x))

    def adjoint(self, f: np.ndarray) -> np.ndarray:
        """Real part of the inverse unitary DFT of masked k-space data."""
        return self.adjoint_sampled(self.sample(f))

    def forward_sampled(self, x: np.ndarray) -> np.ndarray:
        """:meth:`sample` of :meth:`forward`, made with no full-size array."""
        return self._spectrum(self._image(x))[self._on]

    def adjoint_sampled(self, y: np.ndarray) -> np.ndarray:
        """:meth:`adjoint` of the values y at the sampled frequencies."""
        return self._inverse(self._sampled(y)).real.copy()

    def sample(self, f: np.ndarray) -> np.ndarray:
        """The entries of full (height, width) k-space data f at the sampled
        frequencies, a fresh vector in flat (row-major) order, of f's dtype.
        An f whose rows are not evenly spaced, such as a transpose, is
        copied first.  No floating-point operation touches an entry off
        the mask, so not even a signalling NaN there raises a warning."""
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
        z = self._spectrum(x1, x2, s)
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
        g = self._inverse(at_k, at_mirror)
        return g.real * w1, g.imag * w2

    def fidelity(self, x: np.ndarray, f: np.ndarray) -> float:
        """Half squared residual of full data f on the sampled frequencies."""
        r = self.forward_sampled(x)
        r -= self.sample(f)
        return residual_energy(r)

    def grad_fidelity(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Adjoint gradient of the fidelity, a real image vector."""
        r = self.forward_sampled(x)
        r -= self.sample(f)
        return self.adjoint_sampled(r)


def squared_norm(resid: np.ndarray) -> float:
    """Squared norm of a k-space residual, full or on the sampled
    frequencies, as one dot product over its float view."""
    v = np.ascontiguousarray(resid).reshape(-1).view(np.float64)
    return float(_dot(v, v))


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
            n2 = float(_dot(v, v))
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
            dots = _dot(v1, v1), _dot(v2, v2)
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
    :meth:`MaskedDft.residual_pair` takes them, held as read-only
    copies.  ``f1`` and ``f2`` are the full (height, width) arrays, zero
    off the mask, built read-only on each access: for files and one-off
    calls, not for loops.
    """

    dft: MaskedDft
    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        for name in ("y1", "y2"):  # copies: the caller's arrays may change
            y = self.dft._sampled(np.array(getattr(self, name), np.complex128))
            y.flags.writeable = False
            object.__setattr__(self, name, y)

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


# samples per pass of radial_mask's spoke drawing, and angles per pass of
# its coverage bounds, which keeps their temporary arrays near 0.5 MB each
# at any image size
_SPOKE_SAMPLES = 2**16


def _spoke_samples(height: int, width: int) -> np.ndarray:
    """The samples t of every spoke that may round onto the grid."""
    radius = float(np.hypot(height, width))
    ts = np.arange(-radius, radius, 0.5)
    # The pixels' squares span [-0.5, height - 0.5] x [-0.5, width - 0.5],
    # within hypot(cy + 0.5, cx + 0.5) of the center (cy, cx).  A sample
    # farther out, with a margin for rounding, has a coordinate beyond that
    # span, which rounds off the grid.
    reach = math.hypot(height // 2 + 0.5, width // 2 + 0.5) + 1.0
    return ts[np.searchsorted(ts, -reach) : np.searchsorted(ts, reach, side="right")]


def _draw_spokes(mask: np.ndarray, num_spokes: int, ts: np.ndarray) -> None:
    """Set mask to the pixels of num_spokes spokes at equal angles through
    its center: each sample t of each spoke rounded to a pixel, where that
    lies on the grid."""
    height, width = mask.shape
    flat = mask.reshape(-1)
    flat[:] = False
    per = max(1, _SPOKE_SAMPLES // ts.size)  # spokes drawn per pass
    angles = np.pi * np.arange(num_spokes) / num_spokes
    for j in range(0, num_spokes, per):
        a = angles[j : j + per, None]
        ys = ts * np.sin(a)
        ys += height // 2
        ys = np.rint(ys, out=ys).astype(np.intp)
        xs = ts * np.cos(a)
        xs += width // 2
        xs = np.rint(xs, out=xs).astype(np.intp)
        # a negative coordinate reads as a huge unsigned one
        on = ys.view(np.uintp) < height
        on &= xs.view(np.uintp) < width
        ys *= width
        ys += xs
        flat[ys[on]] = True


def _coverage_bound(counts: np.ndarray, height: int, width: int) -> np.ndarray:
    """Upper bounds on the pixels that S spokes cover, one for each count
    S >= 1 in counts, from one pass over all their angles.

    A spoke's pixels come from consecutive samples, as each coordinate is
    monotone along the spoke, and form a path that steps at most 1 in each
    coordinate a sample: at most 1 + dy + dx pixels, where dy and dx are
    the ranges of its rows and columns.  A range is at most the side less
    1, and at most the floor of the span of t sin (or t cos) over the
    samples on the grid, plus 1.  Those samples have |t cos| <= cx + 0.5,
    so the span of t sin is at most (2 cx + 1) |tan a|, and likewise that
    of t cos at most (2 cy + 1) / |tan a|.  Each spoke runs from the center
    out to the grid's edge both ways, so past the box of half-side r about
    the center, through at least 2r + 1 of the box's pixels: the spokes
    cover at most the box's (2r + 1)^2 and 1 + dy + dx - (2r + 1) >= 0
    pixels each outside it; r is S // 4, or less where the box would leave
    the grid.  Every term is an integer, so each bound is exact whatever
    the order of its sum.
    """
    counts = np.asarray(counts, dtype=np.intp)
    cy, cx = height // 2, width // 2
    # the angles pi j / S, j < S, of every count in turn
    starts = np.cumsum(counts) - counts
    j = np.arange(starts[-1] + counts[-1]) - np.repeat(starts, counts)
    a = np.pi * j / np.repeat(counts, counts)
    # tan(pi/2 - a) stands for 1 / tan a, finite at a = 0; the margin
    # covers the rounding of the samples and of this bound
    spans = np.empty((2, a.size))
    np.multiply(np.abs(np.tan(a)), 2 * cx + 1, out=spans[0])
    np.multiply(np.abs(np.tan(np.pi / 2 - a)), 2 * cy + 1, out=spans[1])
    spans += 1e-6
    np.minimum(spans[0], height - 2, out=spans[0])
    np.minimum(spans[1], width - 2, out=spans[1])
    np.floor(spans, out=spans)
    sums = np.add.reduceat(spans[0] + spans[1], starts)
    box = 2 * np.minimum(counts // 4, min(height - 1 - cy, width - 1 - cx)) + 1
    return box * box + counts * (3 - box) + sums


def _start_count(height: int, width: int, target: int) -> int:
    """The first spoke count that radial_mask draws for target pixels:
    the first whose coverage bound reaches the target, or the cap."""
    max_spokes = 4 * max(height, width)
    # Both coordinates of a spoke are monotone in t, so it covers
    # at most height + width - 1 pixels and S spokes at most S times that.
    # Every S below ceil(target / (height + width - 1)) ends below the
    # target, so starting there stops at the same S as starting from 1.
    num_spokes = min(-(-target // (height + width - 1)), max_spokes)
    # Nor does any S whose coverage bound is below the target reach it.
    # Each pass takes the bounds of the counts from S up to half as many
    # again, which at ratio 0.3 reach the first admitted count in one pass,
    # but of no more of them than hold _SPOKE_SAMPLES angles between them
    # (k counts hold k S + k (k - 1) / 2), and of at least one.
    while num_spokes < max_spokes:
        b = 2 * num_spokes - 1
        fit = (math.isqrt(b * b + 8 * _SPOKE_SAMPLES) - b) // 2
        k = max(1, min(num_spokes // 2 + 1, max_spokes - num_spokes, fit))
        bounds = _coverage_bound(np.arange(num_spokes, num_spokes + k), height, width)
        admitted = np.flatnonzero(bounds >= target)
        if admitted.size:
            return num_spokes + int(admitted[0])
        num_spokes += k
    return max_spokes


def radial_mask(height: int, width: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Pseudo-radial mask: straight spokes through the grid center.

    Spokes at equal angles are accumulated until the target count is
    reached, then random sampled points are dropped so the achieved ratio
    matches round(ratio*N)/N.  Frequencies are laid out with the zero
    frequency at the center before being shifted back to FFT order.

    The search draws spoke counts S = S0, S0 + 1, ... and stops at the
    first whose S spokes cover the target.  S0 is the first count whose
    coverage bound reaches the target (:func:`_start_count`), so most
    counts below the one the search settles on are never drawn.  Coverage
    is not monotone in S (at 1024^2, 223 spokes cover 266,625 pixels and
    224 cover 266,614), so the search cannot bisect.  The mask and the
    generator's state equal, bit for bit, those of ``tests/oracles.py``'s
    reference, which tries every count from 1 and draws one spoke per call.

    The search ends by the cap S = 4 M, M = max(height, width), whose
    spokes cover every pixel.  A pixel lies at most hypot(M/2, M/2) =
    M/sqrt(2) from the center, and within pi/(2S) = pi/(8M) of the angle
    of the nearest spoke, so within (M/sqrt(2)) sin(pi/(8M)) <= 0.278 of
    that spoke's line.  Along the line, the samples, 0.5 apart over a
    range that reaches more than a sample past the farthest pixel, put one
    within 0.25 of the pixel's projection, and so within 0.374 of the
    pixel's center.
    Each of its coordinates is then within 0.5 of the pixel's, with room
    for rounding, so it rounds to that pixel.
    """
    _check_ratio(ratio)
    n = height * width
    target = max(1, round(ratio * n))
    cy, cx = height // 2, width // 2

    mask = np.zeros((height, width), dtype=bool)
    ts = _spoke_samples(height, width)
    num_spokes = _start_count(height, width, target)
    while True:
        _draw_spokes(mask, num_spokes, ts)
        count = np.count_nonzero(mask)
        if count >= target:
            break
        num_spokes += 1

    flat = mask.ravel()
    if count > target:
        on = np.flatnonzero(flat)
        center = cy * width + cx
        on = on[on != center]  # keep the zero frequency sampled
        drop = rng.choice(on, size=count - target, replace=False)
        flat[drop] = False
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
    # a column of row coordinates and a row of column coordinates; each
    # ellipse and blob test broadcasts the parts of them on its bounding box
    yy = np.arange(height, dtype=np.float64)[:, None]
    xx = np.arange(width, dtype=np.float64)
    img1 = np.zeros((height, width))
    img2 = np.zeros((height, width))

    # shared ellipse
    cy = height * (0.35 + 0.1 * rng.random())
    cx = width * (0.4 + 0.1 * rng.random())
    ry = height * (0.12 + 0.05 * rng.random())
    rx = width * (0.16 + 0.05 * rng.random())
    ys, xs = _near(cy, ry), _near(cx, rx)
    ell = ((yy[ys] - cy) / ry) ** 2 + ((xx[xs] - cx) / rx) ** 2 <= 1.0
    img1[ys, xs][ell] = 0.9
    img2[ys, xs][ell] = 0.6

    # shared rectangle
    ry0 = int(height * (0.6 + 0.05 * rng.random()))
    rx0 = int(width * (0.55 + 0.05 * rng.random()))
    rh = max(2, int(height * 0.12))
    rw = max(2, int(width * 0.18))
    img1[ry0 : ry0 + rh, rx0 : rx0 + rw] = 0.5
    img2[ry0 : ry0 + rh, rx0 : rx0 + rw] = 1.0

    # one small private blob per channel
    for img, level in ((img1, 0.7), (img2, 0.8)):
        by = height * (0.15 + 0.6 * rng.random())
        bx = width * (0.15 + 0.6 * rng.random())
        br = max(1.5, 0.05 * min(height, width))
        ys, xs = _near(by, br), _near(bx, br)
        blob = (yy[ys] - by) ** 2 + (xx[xs] - bx) ** 2 <= br**2
        img[ys, xs][blob] = level

    return img1, img2


def _near(c: float, r: float) -> slice:
    """The indices i >= 0 within r + 1 of c, as a slice, which indexing
    clips to the grid: one side of the bounding box of a shape of radius
    r > 0 centred at c >= 0.  An index outside it is more than r + 1 from
    c, to rounding, so its rounded difference from c, over r and squared,
    stays above 1, and squared alone above r**2: the shape's test is false
    there whatever the other coordinate adds."""
    return slice(max(0, math.ceil(c - r - 1)), math.floor(c + r + 1) + 1)


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
    """A joint-recovery instance: the two ground-truth images, held as
    read-only float64 copies, and the k-space data measured from them."""

    truth1: np.ndarray
    truth2: np.ndarray
    kspace: KSpaceData

    def __post_init__(self):
        for name in ("truth1", "truth2"):  # copies: the caller's arrays may change
            t = np.array(getattr(self, name), np.float64)
            t.flags.writeable = False
            object.__setattr__(self, name, t)

    @property
    def dft(self) -> MaskedDft:
        """The measurement operator, the one ``kspace`` is sampled on."""
        return self.kspace.dft

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
        y = dft.forward_sampled(truth)
        if spec.noise_std > 0:
            # drawn full-shape, so the generator's stream does not depend on
            # the mask, and only the sampled draws are kept
            re = dft.sample(rng.standard_normal(mask.shape))
            im = dft.sample(rng.standard_normal(mask.shape))
            y += spec.noise_std * (re + 1j * im)
        chans.append(y)
    return Instance(truth1, truth2, KSpaceData(dft, chans[0], chans[1]))

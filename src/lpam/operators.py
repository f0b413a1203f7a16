"""Measurement operators and synthetic instance generation.

The masked DFT uses unitary normalization in both directions so the
fidelity gradient has Lipschitz constant at most 1 for any binary mask.
Instances are fully deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import scratch


def _dft_buffers(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    # per image shape: the masked k-space data and the first per-axis pass
    return scratch(
        ("dft", shape),
        lambda: (np.empty(shape, np.complex128), np.empty(shape, np.complex128)),
    )


@dataclass(frozen=True, eq=False)
class MaskedDft:
    """Undersampled 2-d DFT measurement operator for one image channel.

    Each transform is the two per-axis passes ``fft2``/``ifft2`` make,
    last axis first, so values match them bit for bit; the first pass
    writes into this thread's scratch, and the returned arrays are
    always fresh.
    """

    mask: np.ndarray  # boolean, shape (height, width)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 2:
            raise ValueError("mask must be a 2-d boolean matrix")
        object.__setattr__(self, "mask", m)
        # flat indices of the unsampled frequencies, zeroed in place
        object.__setattr__(self, "_off", np.flatnonzero(~m))

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

    def _masked(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scratch holding f on the sampled frequencies and zero elsewhere,
        and this thread's second scratch buffer."""
        buf, spare = _dft_buffers(self.shape)
        if np.shape(f) != self.shape:
            raise ValueError("k-space data shape does not match mask")
        np.copyto(buf, f)
        buf.reshape(-1)[self._off] = 0.0
        return buf, spare

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Masked unitary DFT of a flattened image; zero outside the mask."""
        buf, _ = _dft_buffers(self.shape)
        np.fft.fft(self._image(x), axis=1, norm="ortho", out=buf)
        spec = np.fft.fft(buf, axis=0, norm="ortho")
        spec.reshape(-1)[self._off] = 0.0
        return spec

    def adjoint(self, f: np.ndarray) -> np.ndarray:
        """Real part of the inverse unitary DFT of masked k-space data."""
        buf, spare = self._masked(f)
        np.fft.ifft(buf, axis=1, norm="ortho", out=spare)
        np.fft.ifft(spare, axis=0, norm="ortho", out=buf)
        return buf.real.flatten()

    def residual(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Masked DFT of x minus the data f on the sampled frequencies."""
        resid = self.forward(x)
        # subtract a masked copy, not f itself: data off the mask, even a
        # signalling NaN, must neither reach the result nor raise a warning
        resid -= self._masked(f)[0]
        return resid

    def fidelity(self, x: np.ndarray, f: np.ndarray) -> float:
        """Half squared residual on the sampled frequencies."""
        return residual_energy(self.residual(x, f))

    def grad_fidelity(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Adjoint gradient of the fidelity, a real image vector."""
        return self.adjoint(self.residual(x, f))


def residual_energy(resid: np.ndarray) -> float:
    """Half squared norm of a k-space residual: the fidelity value."""
    return 0.5 * float(np.sum(np.abs(resid) ** 2))


@dataclass(frozen=True, eq=False)
class KSpaceData:
    """Sampled k-space data for the two channels; zero outside the mask."""

    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        f1 = np.asarray(self.f1, dtype=np.complex128)
        f2 = np.asarray(self.f2, dtype=np.complex128)
        if f1.shape != f2.shape or f1.ndim != 2:
            raise ValueError("channels must be 2-d arrays of identical shape")
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)


def uniform_mask(height: int, width: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform random sampling mask hitting round(ratio*N) frequencies."""
    _check_ratio(ratio)
    n = height * width
    count = max(1, round(ratio * n))
    idx = rng.choice(n, size=count, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask.reshape(height, width)


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
    radius = float(np.hypot(height, width))

    mask = np.zeros((height, width), dtype=bool)
    num_spokes = 0
    ts = np.arange(-radius, radius, 0.5)
    while mask.sum() < target and num_spokes < 4 * max(height, width):
        num_spokes += 1
        angles = np.pi * np.arange(num_spokes) / num_spokes
        mask[:] = False
        for ang in angles:
            ys = np.clip(np.round(cy + ts * np.sin(ang)).astype(int), 0, height - 1)
            xs = np.clip(np.round(cx + ts * np.cos(ang)).astype(int), 0, width - 1)
            mask[ys, xs] = True

    flat = mask.ravel()
    count = int(flat.sum())
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
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
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


@dataclass(frozen=True)
class InstanceSpec:
    """Description of a synthetic joint-recovery instance."""

    height: int
    width: int
    mask_type: str = "radial"  # "radial" | "uniform"
    ratio: float = 0.3
    noise_std: float = 0.0

    def validate(self) -> None:
        _check_ratio(self.ratio)
        if self.height < 2 or self.width < 2:
            raise ValueError("image dimensions must be at least 2x2")
        if self.mask_type not in ("radial", "uniform"):
            raise ValueError(f"unknown mask type {self.mask_type!r}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")


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
    spec.validate()
    rng = np.random.default_rng(seed)
    truth1, truth2 = shared_structure_phantom(spec.height, spec.width, rng)
    if spec.mask_type == "radial":
        mask = radial_mask(spec.height, spec.width, spec.ratio, rng)
    else:
        mask = uniform_mask(spec.height, spec.width, spec.ratio, rng)
    dft = MaskedDft(mask)

    chans = []
    for truth in (truth1, truth2):
        f = dft.forward(truth.ravel())
        if spec.noise_std > 0:
            noise = spec.noise_std * (
                rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
            )
            f = np.where(mask, f + noise, 0.0)
        chans.append(f)
    return Instance(truth1, truth2, dft, KSpaceData(chans[0], chans[1]))

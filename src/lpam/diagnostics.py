"""Convergence and complexity assertions over solver traces, plus image
quality metrics for reconstruction runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .solver import IterateRecord, LpamConfig


def lmax_bound(
    L_eps: float, ls_delta: float, alpha_bar: float, beta_bar: float, rho: float
) -> int:
    """Worst-case backtrack count for the fallback line search.

    floor(log((L/2 + delta) * max(alpha_bar, beta_bar)) / log(1/rho)) + 1,
    clamped below at 0.
    """
    if L_eps <= 0 or ls_delta <= 0 or alpha_bar <= 0 or beta_bar <= 0:
        raise ValueError("all inputs must be positive")
    if not (0 < rho < 1):
        raise ValueError("rho must lie in (0, 1)")
    arg = (L_eps / 2.0 + ls_delta) * max(alpha_bar, beta_bar)
    val = math.floor(math.log(arg) / math.log(1.0 / rho)) + 1
    return max(0, val)


@dataclass
class SegmentReport:
    """One fixed-smoothing segment of a run versus its theoretical length bound."""

    l: int  # segment index
    k_start: int  # iteration of the previous reduction event (-1 for none)
    k_end: int  # iteration of this segment's reduction event
    eps: float
    observed: int
    bound: float

    @property
    def ok(self) -> bool:
        return self.observed <= self.bound


def segment_bound(
    trace: Sequence[IterateRecord],
    L_eps_fn: Callable[[float], float],
    config: LpamConfig,
    phi_star: float = 0.0,
) -> list[SegmentReport]:
    """Per-segment iteration counts against the complexity bound.

    A segment runs from one reduction event to the next; the bound
    combines the safeguard and line-search decrease rates with the
    gradient threshold of the segment.
    """
    events = [r.k for r in trace if r.reduced]
    if not events:
        return []
    by_k = {r.k: r for r in trace}
    reports = []
    prev = -1
    sb = max(config.alpha_bar, config.beta_bar)
    si = min(config.alpha_bar, config.beta_bar)
    for l, k_end in enumerate(events):
        eps_l = config.eps0 * config.gamma**l
        first = by_k[prev + 1]
        L = L_eps_fn(eps_l)
        eta = config.eps_sigma * config.eps0 * config.gamma ** (l + 1)
        rate = 2.0 / config.a**3 + 4.0 * sb**2 * L**2 / (
            config.ls_delta * si**2 * config.rho**2
        )
        bound = rate * (first.phi_pre - phi_star + 1.0) / eta**2
        reports.append(
            SegmentReport(
                l=l,
                k_start=prev,
                k_end=k_end,
                eps=eps_l,
                observed=k_end - prev,
                bound=bound,
            )
        )
        prev = k_end
    return reports


@dataclass
class AuditFailure:
    k: int
    reason: str


def decrease_audit(
    trace: Sequence[IterateRecord],
    config: LpamConfig,
    L_eps_fn: Callable[[float], float],
    slack: float = 1e-9,
) -> tuple[bool, list[AuditFailure]]:
    """Check every accepted step's decrease and gradient-decrease coupling.

    Each step must not increase the objective, and the squared pre-step
    gradient norm must be bounded by b2 times the achieved decrease,
    where b2 combines the safeguard and line-search rates.
    """
    sb = max(config.alpha_bar, config.beta_bar)
    si = min(config.alpha_bar, config.beta_bar)
    failures = []
    for r in trace:
        if r.decrease < -slack:
            failures.append(AuditFailure(r.k, f"objective increased by {-r.decrease}"))
            continue
        L = L_eps_fn(r.eps)
        b2 = max(
            2.0 / config.a**3,
            4.0 * sb**2 * L**2 / (config.ls_delta * si**2 * config.rho**2),
        )
        if r.grad_norm_pre**2 > b2 * r.decrease + slack:
            failures.append(
                AuditFailure(
                    r.k,
                    f"grad_norm_pre^2 = {r.grad_norm_pre ** 2} exceeds "
                    f"b2 * decrease = {b2 * r.decrease}",
                )
            )
    return (not failures, failures)


@dataclass
class MetricsReport:
    psnr: float
    ssim: float
    nmse: float
    rmse: float

    def as_dict(self) -> dict:
        return {"psnr": self.psnr, "ssim": self.ssim, "nmse": self.nmse, "rmse": self.rmse}


def metrics(x: np.ndarray, y: np.ndarray, squared_peak: bool = False) -> MetricsReport:
    """Image quality of reconstruction x against ground truth y.

    PSNR uses peak/MSE with the peak taken from the ground truth; the
    conventional peak^2/MSE variant sits behind ``squared_peak``.  SSIM
    is computed from global image statistics with k1 = 0.01, k2 = 0.03
    and the dynamic range of the ground truth.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("images must have identical shapes")
    ynorm2 = float(np.sum(y * y))
    if ynorm2 == 0.0:
        raise ValueError("ground truth must not be all zero")
    err2 = float(np.sum((x - y) ** 2))
    mse = err2 / x.size
    rmse = math.sqrt(mse)
    nmse = err2 / ynorm2
    if mse == 0.0:
        psnr = math.inf
        ssim = 1.0
    else:
        peak = float(np.max(y))
        psnr = 10.0 * math.log10((peak * peak if squared_peak else peak) / mse)
        ssim = _ssim_global(x, y)
    return MetricsReport(psnr=psnr, ssim=ssim, nmse=nmse, rmse=rmse)


def _ssim_global(x: np.ndarray, y: np.ndarray, k1: float = 0.01, k2: float = 0.03) -> float:
    L = float(np.max(y) - np.min(y))
    if L == 0.0:
        L = 1.0
    c1 = (k1 * L) ** 2
    c2 = (k2 * L) ** 2
    mx, my = float(np.mean(x)), float(np.mean(y))
    vx, vy = float(np.var(x)), float(np.var(y))
    cov = float(np.mean((x - mx) * (y - my)))
    return ((2 * mx * my + c1) * (2 * cov + c2)) / (
        (mx * mx + my * my + c1) * (vx + vy + c2)
    )


def audit_report(
    trace: Sequence[IterateRecord],
    config: LpamConfig,
    L_eps_fn: Callable[[float], float],
    check_decrease: bool = True,
    check_segments: bool = True,
    check_lmax: bool = True,
) -> dict:
    """Combined audit as a JSON-ready dict with an overall ``passed`` flag."""
    report: dict = {"passed": True}

    if check_decrease:
        ok, failures = decrease_audit(trace, config, L_eps_fn)
        report["decrease_audit"] = {
            "passed": ok,
            "failures": [{"k": f.k, "reason": f.reason} for f in failures],
        }
        report["passed"] = report["passed"] and ok

    if check_segments:
        segs = segment_bound(trace, L_eps_fn, config)
        seg_ok = all(s.ok for s in segs)
        report["segments"] = [
            {
                "l": s.l,
                "k_start": s.k_start,
                "k_end": s.k_end,
                "eps": s.eps,
                "observed": s.observed,
                "bound": s.bound,
                "ok": s.ok,
            }
            for s in segs
        ]
        report["passed"] = report["passed"] and seg_ok

    if check_lmax:
        violations = []
        for r in trace:
            if r.branch != "v":
                continue
            cap = lmax_bound(
                L_eps_fn(r.eps), config.ls_delta, config.alpha_bar, config.beta_bar, config.rho
            )
            if r.ls_count > cap:
                violations.append({"k": r.k, "ls_count": r.ls_count, "bound": cap})
        report["lmax"] = {"passed": not violations, "violations": violations}
        report["passed"] = report["passed"] and not violations

    return report

"""Convergence and complexity assertions over solver traces, plus image
quality metrics for reconstruction runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import NumericError
from .fileio import IterateRecord
from .solver import LpamConfig


def lmax_bound(config: LpamConfig, L_eps: float) -> int:
    """Worst-case backtrack count for the fallback line search.

    floor(log((L/2 + delta) * max(alpha_bar, beta_bar)) / log(1/rho)) + 1,
    clamped below at 0, with delta, alpha_bar, beta_bar and rho read off ``config``.
    """
    if not math.isfinite(L_eps):
        raise ValueError(f"Lipschitz estimate must be finite, got {L_eps}")
    if L_eps <= 0:
        raise ValueError("Lipschitz estimate must be positive")
    arg = (L_eps / 2.0 + config.ls_delta) * max(config.alpha_bar, config.beta_bar)
    val = math.floor(math.log(arg) / math.log(1.0 / config.rho)) + 1
    return max(0, val)


def _rates(config: LpamConfig, L: float) -> tuple[float, float]:
    """The safeguard and line-search decrease rates for Lipschitz estimate L,
    2/a^3 and 4 sb^2 L^2 / (ls_delta si^2 rho^2), where sb and si are the
    larger and the smaller of alpha_bar and beta_bar."""
    sb = max(config.alpha_bar, config.beta_bar)
    si = min(config.alpha_bar, config.beta_bar)
    return 2.0 / config.a**3, 4.0 * sb**2 * L**2 / (config.ls_delta * si**2 * config.rho**2)


@dataclass
class MetricsReport:
    psnr: float
    ssim: float
    nmse: float
    rmse: float

    def as_dict(self) -> dict:
        """The metrics as standard JSON values: an infinite PSNR (an exact
        reconstruction) is None."""
        psnr = self.psnr if self.psnr < math.inf else None
        return {"psnr": psnr, "ssim": self.ssim, "nmse": self.nmse, "rmse": self.rmse}


_SSIM_K1, _SSIM_K2 = 0.01, 0.03


def metrics(x: np.ndarray, y: np.ndarray, squared_peak: bool = False) -> MetricsReport:
    """Image quality of reconstruction x against ground truth y.

    PSNR uses peak/MSE with the peak taken from the ground truth; the
    conventional peak^2/MSE variant sits behind ``squared_peak``.  A
    peak that is not positive raises ``ValueError``.  SSIM
    is computed from global image statistics with k1 = 0.01, k2 = 0.03
    and the dynamic range of the ground truth.  A squared error or SSIM
    that is not finite, or a squared truth norm that is not positive and
    finite, as from a NaN entry or a square out of range, raises :class:`NumericError`.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("images must have identical shapes")
    if not y.any():
        raise ValueError("ground truth must not be all zero")
    err2 = float(np.sum((x - y) ** 2))
    if not math.isfinite(err2):
        raise NumericError(f"squared error is not finite: {err2}")
    mse = err2 / x.size
    rmse = math.sqrt(mse)
    if mse == 0.0:
        psnr = math.inf
        ssim = 1.0
    else:
        y_max = float(np.max(y))
        peak = y_max * y_max if squared_peak else y_max
        if not peak > 0.0:
            raise ValueError(
                f"PSNR needs a positive peak, got {peak} from a ground-truth maximum of {y_max}"
            )
        q = peak / mse
        # a quotient past the float range is taken apart, not read as 0 or inf
        psnr = 10.0 * (math.log10(q) if 0.0 < q < math.inf else math.log10(peak) - math.log10(mse))
        ssim = _ssim_global(x, y)
    ynorm2 = float(np.sum(y * y))
    if not 0.0 < ynorm2 < math.inf:
        raise NumericError(f"squared norm of the ground truth out of float range: {ynorm2}")
    return MetricsReport(psnr=psnr, ssim=ssim, nmse=err2 / ynorm2, rmse=rmse)


def _ssim_global(x: np.ndarray, y: np.ndarray) -> float:
    L = float(np.max(y) - np.min(y))
    if L == 0.0:
        L = 1.0
    mx, my = float(np.mean(x)), float(np.mean(y))
    vx, vy = float(np.var(x)), float(np.var(y))
    cov = float(np.mean((x - mx) * (y - my)))
    try:
        c1 = (_SSIM_K1 * L) ** 2
        c2 = (_SSIM_K2 * L) ** 2
        ssim = ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    except ArithmeticError as exc:  # a constant overflows, or the denominator underflows to 0
        raise NumericError(f"SSIM out of floating-point range: {exc}") from None
    if not math.isfinite(ssim):
        raise NumericError(f"SSIM is not finite: {ssim}")
    return ssim


_SLACK = 1e-9  # rounding tolerated in a decrease that is 0 in exact arithmetic


def _finite(r: IterateRecord, what: str, value: float) -> float:
    """``value`` if it is finite, else a NumericError naming row r."""
    if not math.isfinite(value):
        raise NumericError(f"audit {what} at k = {r.k}, eps = {r.eps} is not finite: {value}")
    return value


def audit_report(
    trace: Sequence[IterateRecord],
    config: LpamConfig,
    L_eps_fn: Callable[[float], float],
) -> dict:
    """The decrease, segment and ``lmax`` audits of a trace, made in one pass,
    as a JSON-ready dict with an overall ``passed`` flag.

    ``L_eps_fn`` must be pure: its estimate, the two decrease rates and, at
    the first fallback row, the ``lmax`` bound are taken once per run of
    rows whose ``eps`` equals the previous row's, sign included (a NaN
    never does), and serve the whole run.

    The decrease audit lists ``{"k", "reason"}`` failures: each step must
    not increase the objective, and its squared pre-step gradient norm
    must be bounded by b2 times the achieved decrease, b2 the larger of
    the row's safeguard and line-search rates.  Each fallback row's
    backtrack count must be within :func:`lmax_bound`.  A reduced row
    closes a segment, which runs from the previous reduction event.  Its
    bound combines the decrease rates of the segment's first row with its
    ``phi_pre`` and the solver's reduction threshold at its eps; both
    objectives are nonnegative, so 0 stands in for the optimal value.

    A Lipschitz estimate, rate, reduction threshold or bound that is not
    finite, or a quantity whose forming raises ``ArithmeticError``, raises
    :class:`NumericError` naming the quantity and the row's ``k`` and eps.
    """
    failures, segs, violations = [], [], []
    # the last reduced row's k; the open segment's first row and its rate sum
    prev, first, rate_sum = -1, None, None
    # the eps whose estimate, rates and lmax bound (None until a fallback
    # row asks for it) serve the rows that carry it
    eps = math.nan
    for r in trace:
        # the quantity being formed, which an ArithmeticError names
        what = "Lipschitz estimate"
        try:
            # a NaN equals nothing, and 0.0 and -0.0 are told apart
            if r.eps != eps or (r.eps == 0 and math.copysign(1, r.eps) != math.copysign(1, eps)):
                eps, cap = r.eps, None
                L = _finite(r, what, L_eps_fn(eps))
                what = "decrease rate"
                safeguard, line_search = [_finite(r, what, v) for v in _rates(config, L)]
                b2 = max(safeguard, line_search)
            if first is None:
                first, rate_sum = r, safeguard + line_search
            if r.decrease < -_SLACK:
                failures.append({"k": r.k, "reason": f"objective increased by {-r.decrease}"})
            else:
                what = "squared pre-step gradient norm"
                g2 = r.grad_norm_pre**2
                if g2 > b2 * r.decrease + _SLACK:
                    failures.append(
                        {
                            "k": r.k,
                            "reason": f"grad_norm_pre^2 = {g2} exceeds "
                            f"b2 * decrease = {b2 * r.decrease}",
                        }
                    )
            if r.branch == "v":
                what = "lmax bound"
                if cap is None:
                    cap = lmax_bound(config, L)
                if r.ls_count > cap:
                    violations.append({"k": r.k, "ls_count": r.ls_count, "bound": cap})
            if r.reduced:
                what = "reduction threshold"
                eta = _finite(r, what, config.reduction_threshold(first.eps))
                what = "segment bound"
                bound = _finite(r, what, rate_sum * (first.phi_pre + 1.0) / eta**2)
                observed = r.k - prev
                segs.append(
                    {
                        "l": len(segs),
                        "k_start": prev,
                        "k_end": r.k,
                        "eps": first.eps,
                        "observed": observed,
                        "bound": bound,
                        "ok": observed <= bound,
                    }
                )
                prev, first = r.k, None
        except ArithmeticError as exc:  # a square overflows, or a divisor underflows to 0
            raise NumericError(
                f"audit {what} at k = {r.k}, eps = {r.eps} out of floating-point range: {exc}"
            ) from None
    return {
        "passed": not failures and all(s["ok"] for s in segs) and not violations,
        "decrease_audit": {"passed": not failures, "failures": failures},
        "segments": segs,
        "lmax": {"passed": not violations, "violations": violations},
    }

"""The benchmark's three workloads: set-up, timed solves and correctness checks.

Each workload's ``run`` returns a :class:`Result`.  Untraced runs report
the end-to-end metrics; traced runs wrap the ``lpam`` modules with
:class:`tracing.Tracer` and report per-layer metrics instead.  See
``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from lpam import cli, diagnostics, extractor, fileio, objectives, operators, solver
from tracing import SpanStats, Tracer

LAM = 0.0093  # the README's default regularization weight
SPAN_CAP = 200_000  # traced runs hold at most about this many spans


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    detail: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted item; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0


# A fixed mix of interpreter, FFT and windowed-einsum work, the three kinds
# of work the workloads spend their time in, timed between measurements.
_RNG = np.random.default_rng(0)
_CAL_IMAGE = _RNG.standard_normal((128, 128))
_CAL_WINDOWS = np.lib.stride_tricks.sliding_window_view(_RNG.standard_normal((4, 34, 34)), (3, 3), axis=(1, 2))
_CAL_KERNEL = _RNG.standard_normal((8, 4, 3, 3))
# its time on the machine the benchmark was tuned on (2-vCPU Intel Xeon VM),
# in a quiet phase; calibrated timings are in seconds of that machine
CALIBRATION_NOMINAL_S = 0.0025


def calibrate() -> float:
    """Median time of three runs of the calibration work."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0.0
        for i in range(10_000):
            x += i * 0.5
        np.fft.ifft2(np.fft.fft2(_CAL_IMAGE))
        np.einsum("ihwyx,oiyx->ohw", _CAL_WINDOWS, _CAL_KERNEL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Timings:
    """Wall-time samples by name, each also scaled to the calibration machine's speed.

    The machine the benchmark was tuned on alternates between speeds up
    to 2x apart, in phases of ten seconds to minutes, and every kind of
    work slows down together.  So after each group of samples,
    :meth:`commit` times the calibration work and scales the group by
    ``CALIBRATION_NOMINAL_S`` over the mean of the calibration times just
    before and after it.  The reported figures are medians of the scaled
    samples; the record line also gives the raw wall-time medians.
    """

    def __init__(self):
        self._last = calibrate()
        self._pending: dict = defaultdict(list)
        self.raw: dict = defaultdict(list)
        self.scaled: dict = defaultdict(list)
        self.factors: list = []

    def add(self, name: str, seconds: float) -> None:
        self._pending[name].append(seconds)

    def commit(self) -> None:
        now = calibrate()
        factor = CALIBRATION_NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        self.raw["calibration"].append(now)
        self.factors.append(factor)
        for name, values in self._pending.items():
            self.raw[name] += values
            self.scaled[name] += [v * factor for v in values]
        self._pending.clear()

    def median(self, name: str) -> float:
        return statistics.median(self.scaled[name])

    def summary(self) -> dict:
        """Median, quartiles and count of every series, scaled and raw."""
        out = {}
        for name, raw in self.raw.items():
            out[name] = {"n": len(raw), "raw": quartiles(raw)}
            if name in self.scaled:
                out[name]["scaled"] = quartiles(self.scaled[name])
        return out


def quartiles(values) -> list:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def ratio(num: int, den: int) -> str:
    """An exact ratio as text, for counts a later change can cite."""
    return str(Fraction(num, den)) if den else "0"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def per_call_s(fn, min_batch_s: float = 0.02, repeats: int = 7) -> float:
    """Median per-call wall time of ``fn`` over ``repeats`` batches of at least ``min_batch_s``."""
    fn()
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        calls *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def trace_sha256(trace, path: Path) -> str:
    """SHA-256 of the bytes ``write_trace_csv`` produces for ``trace``."""
    solver.write_trace_csv(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def layer_metrics(spans: list, iters: int, u_accepted: int, backtracks: int, scale: float) -> tuple[dict, dict]:
    """Per-layer metrics of traced solves, plus the exact counts behind them.

    Span times are scaled by ``scale``, the run's median calibration factor.
    """
    s = SpanStats(spans)
    calls = {
        name: s.calls_in_solve[name]
        for name in (
            "operators.forward",
            "operators.adjoint",
            "extractor.forward",
            "extractor.vjp",
            "core.phi_eps",
            "core.grad_phi_eps",
            "objectives.grad1_h",
            "objectives.grad2_h",
            "solver.u_step",
        )
    }
    u_attempts = calls["solver.u_step"]

    def per_iter(*names):
        return sum(calls[n] for n in names) / iters

    def ms(name, self_only=False):
        return s.mean_ms(name, self_only) * scale

    m = {
        "operators.dft_calls_per_iter": (per_iter("operators.forward", "operators.adjoint"), "calls/iter"),
        "operators.busy_share": (s.busy_share("operators"), "ratio"),
        "extractor.forward_calls_per_iter": (per_iter("extractor.forward"), "calls/iter"),
        "extractor.vjp_calls_per_iter": (per_iter("extractor.vjp"), "calls/iter"),
        "extractor.busy_share": (s.busy_share("extractor"), "ratio"),
        "smoothing.r_eps_ms": (ms("smoothing.r_eps"), "ms"),
        "smoothing.grad_r_eps_self_ms": (ms("smoothing.grad_r_eps", self_only=True), "ms"),
        "smoothing.busy_share": (s.busy_share("smoothing"), "ratio"),
        "core.phi_eps_calls_per_iter": (per_iter("core.phi_eps"), "calls/iter"),
        "core.grad_phi_eps_calls_per_iter": (per_iter("core.grad_phi_eps"), "calls/iter"),
        "core.self_share": (s.busy_share("core"), "ratio"),
        "objectives.joint_grad_calls_per_iter": (
            per_iter("objectives.grad1_h", "objectives.grad2_h"),
            "calls/iter",
        ),
        "solver.u_accept_ratio": (u_accepted / u_attempts if u_attempts else 0.0, "ratio"),
        "solver.backtracks_per_iter": (backtracks / iters, "count/iter"),
        "solver.u_step_ms": (ms("solver.u_step"), "ms"),
        "solver.safeguard_ms": (ms("solver.safeguard_check"), "ms"),
        "solver.v_step_ms": (ms("solver.v_step_with_linesearch"), "ms"),
        "solver.self_share": (s.self_share("solver.lpam_run"), "ratio"),
        "solver.trace_write_ms": (ms("solver.write_trace_csv"), "ms"),
        "solver.trace_read_ms": (ms("solver.read_trace_csv"), "ms"),
        "diagnostics.audit_ms": (ms("diagnostics.audit_report"), "ms"),
        "diagnostics.metrics_ms": (ms("diagnostics.metrics"), "ms"),
        "fileio.write_array_ms": (ms("fileio.write_array"), "ms"),
        "fileio.read_array_ms": (ms("fileio.read_array"), "ms"),
        "cli.self_share": (s.self_share("cli.main"), "ratio"),
    }
    exact = {
        "iterations": iters,
        "calls": calls,
        "calls_per_iter": {k: ratio(v, iters) for k, v in calls.items()},
        "u_accepted": u_accepted,
        "u_attempts": u_attempts,
        "backtracks": backtracks,
        "backtracks_per_iter": ratio(backtracks, iters),
        "spans": len(spans),
    }
    return m, exact


def add_overhead(res: Result, timings: Timings) -> None:
    traced, untraced = timings.median("traced_iter_ms"), timings.median("iter_ms")
    res.metrics["tracing.iter_ms"] = (traced, "ms")
    res.metrics["tracing.overhead_ms"] = (traced - untraced, "ms")
    res.detail["timings"] = timings.summary()


def micro_timings(obj, X0=None) -> dict:
    """Per-call times of single building blocks on a workload's own objective.

    Each is calibrated like the end-to-end timings.  Layers the objective
    does not use report 0: all of them for ``None`` (the quadratic toy),
    the convolution and activation timings for the identity extractor.
    """
    names = (
        "operators.forward_ms",
        "operators.adjoint_ms",
        "operators.fidelity_ms",
        "operators.grad_fidelity_ms",
        "extractor.forward_ms",
        "extractor.vjp_ms",
        "extractor.smoothed_relu_ms",
        "extractor.conv_forward_ms",
        "extractor.conv_adjoint_ms",
    )
    calls = {}
    if obj is not None:
        dft, f1, x, ext = obj.dft, obj.kspace.f1, X0.x1, obj.extractor
        w = ext.forward(X0)
        calls = {
            "operators.forward_ms": lambda: dft.forward(x),
            "operators.adjoint_ms": lambda: dft.adjoint(f1),
            "operators.fidelity_ms": lambda: dft.fidelity(x, f1),
            "operators.grad_fidelity_ms": lambda: dft.grad_fidelity(x, f1),
            "extractor.forward_ms": lambda: ext.forward(X0),
            "extractor.vjp_ms": lambda: ext.vjp(X0, w),
        }
        if isinstance(ext, extractor.FeatureExtractor):
            # a one-layer extractor's vjp runs no forward convolution, so its
            # time is the adjoint convolution plus reshaping
            one = extractor.FeatureExtractor(ext.height, ext.width, ext.weights[:1], ext.act_delta)
            g = one.forward(X0)
            z = np.random.default_rng(0).standard_normal(g.T.shape) * ext.act_delta
            calls["extractor.smoothed_relu_ms"] = lambda: extractor.smoothed_relu(z, ext.act_delta)
            calls["extractor.conv_forward_ms"] = lambda: one.forward(X0)
            calls["extractor.conv_adjoint_ms"] = lambda: one.vjp(X0, g)
    timings = Timings()
    for name, fn in calls.items():
        timings.add(name, per_call_s(fn))
        timings.commit()
    return {name: (timings.median(name) * 1e3 if name in calls else 0.0, "ms") for name in names}


# ---------------------------------------------------------------- recovery


@dataclass(frozen=True)
class Recovery:
    """Joint two-channel recovery from a radial mask at ratio 0.3, no noise.

    Each run solves ``instances`` instances whose seeds derive from the
    run's seed, and averages the per-instance quality figures over them:
    convergence speed differs a lot from one phantom to the next.
    """

    size: int
    features: str  # "identity" | "random-4x8"
    instances: int
    budget: int  # solver iterations per budget solve
    target: float  # accuracy target: mean NMSE below target * zero-filled
    setup_repeats: int  # set-ups timed after each instance's solves

    def config(self, max_iter: int) -> solver.LpamConfig:
        return solver.LpamConfig(max_iter=max_iter)

    def build(self, seed: int):
        n = self.size
        inst = operators.generate_instance(operators.InstanceSpec(height=n, width=n, ratio=0.3), seed)
        if self.features == "identity":
            ext = extractor.IdentityExtractor(n, n)
        else:
            ext = extractor.random_extractor(n, n, num_layers=4, channels=8, seed=1)
        obj = objectives.JointRecovery(inst.dft, inst.kspace, ext, LAM)
        return inst, obj, obj.zero_filled()

    def nmse(self, inst, X) -> tuple[float, float]:
        shape = (self.size, self.size)
        return (
            diagnostics.metrics(X.x1.reshape(shape), inst.truth1).nmse,
            diagnostics.metrics(X.x2.reshape(shape), inst.truth2).nmse,
        )

    def solve(self, obj, X0, max_iter: int):
        t0 = time.perf_counter()
        state, reason = solver.lpam_run(obj, X0, self.config(max_iter))
        return state, reason, time.perf_counter() - t0

    def first_on_target(self, inst, obj, X0, res: Result):
        """Untimed pass, one iteration per call, that finds the first iteration
        meeting the target.  The solver's state between iterations is the
        iterate, eps and the iteration index, so restarting each call at
        that state with the step schedules shifted by k replays the full run.
        """
        cfg = self.config(self.budget)
        zf = sum(self.nmse(inst, X0)) / 2
        X, eps = X0, cfg.eps0
        for k in range(self.budget):
            shifted = {
                name: tuple(getattr(cfg, name)[min(k, len(getattr(cfg, name)) - 1) :])
                for name in ("step_alpha", "step_tau", "step_beta", "step_gamma")
            }
            state, reason = solver.lpam_run(obj, X, dataclasses.replace(cfg, eps0=eps, max_iter=1, **shifted))
            if reason in (solver.EXIT_NUMERIC, solver.EXIT_LINE_SEARCH):
                res.check(False, f"iteration {k} of the stepping pass ended in {reason}")
                return None
            X, eps = state.X, state.eps
            if sum(self.nmse(inst, X)) / 2 < self.target * zf:
                res.check(True, "")
                return k + 1
        res.check(False, f"target {self.target} x zero-filled NMSE not met in {self.budget} iterations")
        return None

    def check_budget_solve(self, inst, obj, X0, state, reason, ref: dict, res: Result, path: Path) -> None:
        """Correctness of one budget solve; the first one of an instance is its reference."""
        digest = trace_sha256(state.trace, path)
        zf = self.nmse(inst, X0)
        fin = self.nmse(inst, state.X)
        audit = diagnostics.audit_report(state.trace, self.config(self.budget), obj.lipschitz_estimate)
        roundtrip = solver.read_trace_csv(path) == state.trace
        if not ref:
            ref.update(sha256=digest, X=state.X, zf=zf, final=fin)
        same = (
            digest == ref["sha256"]
            and np.array_equal(state.X.x1, ref["X"].x1)
            and np.array_equal(state.X.x2, ref["X"].x2)
        )
        res.check(
            reason not in (solver.EXIT_NUMERIC, solver.EXIT_LINE_SEARCH)
            and state.k == self.budget
            and fin[0] <= zf[0]
            and fin[1] <= zf[1]
            and audit["passed"]
            and roundtrip
            and same,
            f"budget solve: exit {reason} after {state.k}, NMSE {fin} vs zero-filled {zf}, "
            f"audit passed {audit['passed']}, trace round trip {roundtrip}, same as first {same}",
        )

    def run(self, seed: int, seconds: float, traced: bool, work: Path) -> Result:
        res = Result()
        seeds = [seed * self.instances + j for j in range(self.instances)]
        res.detail["instance_seeds"] = seeds
        cases = [self.build(s) for s in seeds]
        path = work / "trace.csv"
        refs = [{} for _ in cases]
        if traced:
            self.run_traced(cases, refs, seconds, res, path)
        else:
            self.run_untraced(seeds, cases, refs, seconds, res, path)
        res.detail["trace_sha256"] = {str(s): r.get("sha256") for s, r in zip(seeds, refs)}
        return res

    def run_untraced(self, seeds, cases, refs, seconds, res: Result, path: Path) -> None:
        targets = [self.first_on_target(*case, res) for case in cases]
        if None in targets:
            return
        timings = Timings()
        t_start = time.perf_counter()
        rounds = 0
        # whole rounds over the instances, so each is sampled equally often,
        # and no round that would end after the time is up; set-up is
        # repeated between solves so its samples span the run
        while rounds == 0 or (time.perf_counter() - t_start) * (rounds + 1) / rounds <= seconds:
            rounds += 1
            for j, (inst, obj, X0) in enumerate(cases):
                state, reason, t = self.solve(obj, X0, self.budget)
                timings.add("iter_ms", t / self.budget * 1e3)
                self.check_budget_solve(inst, obj, X0, state, reason, refs[j], res, path)
                state, reason, t = self.solve(obj, X0, targets[j])
                timings.add("to_target_s_per_iter", t / targets[j])
                mean_nmse = sum(self.nmse(inst, state.X)) / 2
                res.check(
                    state.k == targets[j] and mean_nmse < self.target * sum(refs[j]["zf"]) / 2,
                    f"to-target solve stopped at {state.k} with mean NMSE {mean_nmse}",
                )
                for _ in range(self.setup_repeats):
                    t0 = time.perf_counter()
                    self.build(seeds[j])
                    timings.add("setup_s", time.perf_counter() - t0)
                timings.commit()
        # one untimed repeat, so determinism is checked even after one round
        state, reason, _ = self.solve(cases[0][1], cases[0][2], self.budget)
        self.check_budget_solve(*cases[0], state, reason, refs[0], res, path)
        mean_target = sum(targets) / len(targets)
        res.metrics = {
            "setup_s": (timings.median("setup_s"), "s"),
            "iter_ms": (timings.median("iter_ms"), "ms"),
            # instances need different iteration counts, so to-target solves
            # are pooled as time per iteration, scaled by the mean count
            "time_to_target_s": (mean_target * timings.median("to_target_s_per_iter"), "s"),
            "iters_to_target": (mean_target, "count"),
            "final_error": (sum(sum(r["final"]) / 2 for r in refs) / len(refs), "-"),
        }
        res.detail.update(
            rounds=rounds,
            timings=timings.summary(),
            iters_to_target={"per_instance": targets, "exact_mean": ratio(sum(targets), len(targets))},
            final_nmse=[r["final"] for r in refs],
            zero_filled_nmse=[r["zf"] for r in refs],
        )

    def run_traced(self, cases, refs, seconds, res: Result, path: Path) -> None:
        tracer = Tracer()
        timings = Timings()
        iters = u_accepted = backtracks = 0
        t_start = time.perf_counter()
        rounds = 0
        # whole rounds, as in the untraced run, so per-iteration counts are exact
        while rounds == 0 or (
            (time.perf_counter() - t_start) * (rounds + 1) / rounds <= seconds
            and len(tracer.spans) * (rounds + 1) / rounds <= SPAN_CAP
        ):
            rounds += 1
            for j, (inst, obj, X0) in enumerate(cases):
                state, reason, t = self.solve(obj, X0, self.budget)
                timings.add("iter_ms", t / self.budget * 1e3)
                self.check_budget_solve(inst, obj, X0, state, reason, refs[j], res, path)
                with tracer:
                    state, reason, t = self.solve(obj, X0, self.budget)
                    timings.add("traced_iter_ms", t / self.budget * 1e3)
                    self.check_budget_solve(inst, obj, X0, state, reason, refs[j], res, path)
                timings.commit()
                iters += state.k
                u_accepted += sum(r.branch == "u" for r in state.trace)
                backtracks += sum(r.ls_count for r in state.trace)
        res.detail["rounds"] = rounds
        res.metrics, res.detail["counts"] = layer_metrics(
            tracer.spans, iters, u_accepted, backtracks, statistics.median(timings.factors)
        )
        add_overhead(res, timings)
        inst, obj, X0 = cases[0]
        res.metrics.update(micro_timings(obj, X0))
        tracer.write(path.parent / "spans.csv")


# ----------------------------------------------------------- quadratic CLI

QUAD_SOLVER = {
    # the acceptance suite's quadratic step sizes, run to a tighter tolerance
    "eps0": 1.0,
    "gamma": 0.5,
    "eps_sigma": 1.0,
    "eps_tol": 1e-10,
    "step_alpha": [0.03],
    "step_tau": [0.03],
    "step_beta": [0.03],
    "step_gamma": [0.03],
    "max_iter": 2000,
}


@dataclass(frozen=True)
class QuadraticCli:
    """Batches of in-process ``lpam solve`` + ``lpam audit`` jobs on the quadratic toy.

    The toy's start point is fixed by the CLI, so the seed is written into
    the config but leaves the arithmetic unchanged.
    """

    size: int
    setup_repeats: int  # set-ups timed after each job

    def job(self, cfg_path: Path, out: Path) -> tuple[int, int, float, float]:
        args = ["--config", str(cfg_path), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc_solve = cli.main(["solve", *args])
            t1 = time.perf_counter()
            rc_audit = cli.main(["audit", *args])
            t2 = time.perf_counter()
        return rc_solve, rc_audit, t1 - t0, t2 - t1

    def check_job(self, rcs: tuple[int, int], out: Path, ref: dict, res: Result) -> int:
        """Correctness of one job; returns its iteration count."""
        result = json.loads((out / "metrics.json").read_text())
        x1 = fileio.read_array(out / "recon1.arr")
        x2 = fileio.read_array(out / "recon2.arr")
        dist = math.sqrt(float(np.sum(x1 * x1) + np.sum(x2 * x2)))
        digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
        ref.setdefault("sha256", digest)
        ref.setdefault("distance", dist)
        res.check(
            rcs == (0, 0)
            and result["exit_reason"] == solver.EXIT_TOLERANCE
            and dist < 1e-5
            and digest == ref["sha256"],
            f"job: exit codes {rcs}, {result['exit_reason']}, |X| = {dist}, "
            f"trace hash matches first job {digest == ref['sha256']}",
        )
        return result["iterations"]

    def run(self, seed: int, seconds: float, traced: bool, work: Path) -> Result:
        res = Result()
        cfg_path = work / "run.json"
        n = self.size
        raw = {
            "instance": {"height": n, "width": n, "seed": seed},
            "objective": {"kind": "quadratic"},
            "solver": QUAD_SOLVER,
        }
        cfg_path.write_text(json.dumps(raw))
        out = work / "out"
        ref: dict = {}
        if traced:
            self.run_traced(cfg_path, out, seconds, ref, res)
        else:
            self.run_untraced(cfg_path, out, seconds, ref, res)
        res.detail["trace_sha256"] = {str(seed): ref.get("sha256")}
        return res

    def run_untraced(self, cfg_path: Path, out: Path, seconds: float, ref: dict, res: Result) -> None:
        timings = Timings()
        iters = []
        t_start = time.perf_counter()
        while not iters or time.perf_counter() - t_start < seconds:
            rc_solve, rc_audit, ts, ta = self.job(cfg_path, out)
            k = self.check_job((rc_solve, rc_audit), out, ref, res)
            iters.append(k)
            timings.add("iter_ms", ts / k * 1e3 if k else math.nan)
            timings.add("time_to_target_s", ts + ta)
            for _ in range(self.setup_repeats):
                t0 = time.perf_counter()
                cli.build_objective(cli.load_config(str(cfg_path), [], None, None), None)
                timings.add("setup_s", time.perf_counter() - t0)
            timings.commit()
        res.check(len(set(iters)) == 1, f"iteration counts differ between jobs: {sorted(set(iters))}")
        res.metrics = {
            "setup_s": (timings.median("setup_s"), "s"),
            "iter_ms": (timings.median("iter_ms"), "ms"),
            "time_to_target_s": (timings.median("time_to_target_s"), "s"),
            "iters_to_target": (float(iters[0]), "count"),
            "final_error": (ref["distance"], "-"),
        }
        res.detail.update(timings=timings.summary(), iters_to_target=iters[0])

    def run_traced(self, cfg_path: Path, out: Path, seconds: float, ref: dict, res: Result) -> None:
        tracer = Tracer()
        timings = Timings()
        iters = u_accepted = backtracks = 0
        t_start = time.perf_counter()
        while not iters or (time.perf_counter() - t_start < seconds and len(tracer.spans) < SPAN_CAP):
            rc_solve, rc_audit, ts, _ = self.job(cfg_path, out)
            k = self.check_job((rc_solve, rc_audit), out, ref, res)
            timings.add("iter_ms", ts / k * 1e3 if k else math.nan)
            with tracer:
                rc_solve, rc_audit, ts, _ = self.job(cfg_path, out)
                k = self.check_job((rc_solve, rc_audit), out, ref, res)
                trace = solver.read_trace_csv(out / "trace.csv")
            timings.add("traced_iter_ms", ts / k * 1e3 if k else math.nan)
            timings.commit()
            iters += k
            u_accepted += sum(r.branch == "u" for r in trace)
            backtracks += sum(r.ls_count for r in trace)
        res.metrics, res.detail["counts"] = layer_metrics(
            tracer.spans, iters, u_accepted, backtracks, statistics.median(timings.factors)
        )
        add_overhead(res, timings)
        res.metrics.update(micro_timings(None))  # the quadratic toy has no DFT and no extractor
        tracer.write(out.parent / "spans.csv")


WORKLOADS = {
    "identity-128": Recovery(
        size=128, features="identity", instances=24, budget=20, target=0.2, setup_repeats=1
    ),
    "extractor-32": Recovery(
        size=32, features="random-4x8", instances=8, budget=8, target=1.0, setup_repeats=4
    ),
    "quadratic-cli": QuadraticCli(size=32, setup_repeats=20),
}

# tiny versions of the same workloads for the self-test in smoke.py
SMOKE = {
    "identity-128": dataclasses.replace(WORKLOADS["identity-128"], size=16, instances=2, target=0.5),
    "extractor-32": dataclasses.replace(WORKLOADS["extractor-32"], size=8, instances=2, budget=3),
    "quadratic-cli": QuadraticCli(size=4, setup_repeats=2),
}

"""Command-line front end: instance generation, solver runs, audits, metrics.

Subcommands write plain files (binary arrays, CSV traces, JSON reports)
into an output directory; exit codes are 0 on success, 1 on audit
failure, 2 on a numeric failure (of the solver, of an audit bound or of
the metrics of a reconstruction) and 3 on usage or parse errors, a
malformed command line included.  A ``MemoryError``, one allocation the
operating system refused, also exits 3; a process that exhausts memory
in any other way may be killed by the operating system and then ends
with no exit code of lpam's.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .core import ConfigError, NumericError, TwoBlockPoint, store_floats
from .diagnostics import audit_report, metrics
from .extractor import FeatureExtractor, IdentityExtractor
from .objectives import JointRecovery, QuadraticToy
from .operators import Instance, InstanceSpec, KSpaceData, MaskedDft, generate_instance
from .solver import (
    EXIT_LINE_SEARCH,
    EXIT_NUMERIC,
    LpamConfig,
    lpam_run,
    read_trace_csv,
    write_trace_csv,
)


@dataclasses.dataclass(frozen=True)
class ObjectiveSpec:
    """The objective section of a run configuration, checked when it is made."""

    kind: str = "identity"  # "quadratic" | "identity" | "extractor"
    weights_file: str | None = None
    act_delta: float = 0.01
    lam: float = 0.0093

    def __post_init__(self) -> None:
        store_floats(self, ("act_delta", "lam"), "objective.")
        if self.kind not in ("quadratic", "identity", "extractor"):
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        if not (0 <= self.lam < math.inf):
            raise ConfigError("objective.lam must be nonnegative and finite")
        if not (0 < self.act_delta < math.inf):
            raise ConfigError("objective.act_delta must be positive and finite")
        if not isinstance(self.weights_file, (str, type(None))):
            raise ConfigError(
                f"objective.weights_file must be a string or None, got {self.weights_file!r}"
            )
        if self.kind == "extractor" and not self.weights_file:
            raise ConfigError("objective.weights_file required for kind 'extractor'")


# section -> the keys it may hold: the fields of the section's spec
_SCHEMA = {
    "instance": tuple(f.name for f in dataclasses.fields(InstanceSpec)) + ("seed",),
    "objective": tuple(f.name for f in dataclasses.fields(ObjectiveSpec)),
    "solver": tuple(f.name for f in dataclasses.fields(LpamConfig)),
}

# the instance's arrays, one ``<name>.arr`` file each, and the dtype each
# must have, in the order cmd_generate writes them and _load_instance reads them
_INSTANCE_FILES = {
    "truth1": "float64", "truth2": "float64", "mask": "bool",
    "kspace1": "complex128", "kspace2": "complex128",
}


@dataclasses.dataclass
class RunConfig:
    """Configuration for one CLI invocation, one checked spec per section."""

    instance: InstanceSpec
    seed: int
    objective: ObjectiveSpec
    solver: LpamConfig

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        _reject_unknown(raw, _SCHEMA, "top level")
        inst = _section(raw, "instance")
        seed = inst.pop("seed", 0)
        if type(seed) is not int or seed < 0:
            raise ConfigError(f"instance.seed must be a nonnegative integer, got {seed!r}")
        return RunConfig(
            instance=InstanceSpec(**{"height": 32, "width": 32, **inst}),
            seed=seed,
            objective=ObjectiveSpec(**_section(raw, "objective")),
            solver=LpamConfig(**_section(raw, "solver")),
        )


def _section(raw: dict, name: str) -> dict:
    """A copy of config section ``name``; its spec checks the values, and
    absent keys take their defaults there."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    _reject_unknown(section, _SCHEMA[name], name)
    return dict(section)


def _reject_unknown(d: dict, allowed, where: str) -> None:
    unknown = d.keys() - allowed
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {sorted(unknown)}")


def load_config(path: str, overrides: list[str], mode: str | None, seed: int | None) -> RunConfig:
    try:
        with open(path, "rb") as fh:  # json finds UTF-8, -16 or -32 itself
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deep
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must look like key=value: {ov!r}")
        key, value = ov.split("=", 1)
        _apply_override(raw, key, value)
    if mode is not None:
        _apply_override(raw, "solver.mode", mode)
    if seed is not None:
        _apply_override(raw, "instance.seed", str(seed))
    return RunConfig.from_dict(raw)


def _apply_override(raw: dict, dotted: str, value: str) -> None:
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    except (ValueError, RecursionError) as exc:  # such as a 5000-digit int, or too deep
        raise ConfigError(f"invalid JSON in override {dotted}: {exc}") from exc
    parts = dotted.split(".")
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-object")
    node[parts[-1]] = parsed


def build_objective(cfg: RunConfig, instance: Instance | None):
    if cfg.objective.kind == "quadratic":
        return QuadraticToy()
    assert instance is not None
    h, w = cfg.instance.height, cfg.instance.width
    if cfg.objective.kind == "identity":
        extractor = IdentityExtractor(h, w)
    else:
        weights = fileio.read_weights(cfg.objective.weights_file)
        extractor = FeatureExtractor(h, w, weights, cfg.objective.act_delta)
    return JointRecovery(instance.dft, instance.kspace, extractor, cfg.objective.lam)


def _load_instance(cfg: RunConfig, out: Path) -> Instance | None:
    """The generated instance in ``out``; None for the quadratic toy, which has none.

    Every array must have the configured (height, width) shape and its
    dtype in :data:`_INSTANCE_FILES`, else :class:`ConfigError`, before
    anything is solved or written.
    """
    if cfg.objective.kind == "quadratic":
        return None
    shape = (cfg.instance.height, cfg.instance.width)
    arrays = []
    for name, dtype in _INSTANCE_FILES.items():
        path = out / f"{name}.arr"
        arr = fileio.read_array(path)
        if arr.shape != shape:
            raise ConfigError(
                f"{path} has shape {arr.shape}, but instance.height and "
                f"instance.width give {shape}"
            )
        if arr.dtype != dtype:
            raise ConfigError(f"{path} has dtype {arr.dtype}, but {name} must be {dtype}")
        arrays.append(arr)
    truth1, truth2, mask, f1, f2 = arrays
    dft = MaskedDft(mask)
    # only the values at the sampled frequencies are kept: what the files
    # hold off the mask is never read
    return Instance(truth1, truth2, KSpaceData(dft, dft.sample(f1), dft.sample(f2)))


def _json(obj: dict, **kwargs) -> str:
    """``obj`` as standard JSON: a non-finite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)


def _dump_json(path: Path, obj: dict) -> None:
    text = _json(obj, indent=2)  # ASCII: json escapes every other character
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii") + b"\n")


def cmd_generate(cfg: RunConfig, out: Path) -> int:
    inst = generate_instance(cfg.instance, cfg.seed)
    out.mkdir(parents=True, exist_ok=True)
    arrays = (inst.truth1, inst.truth2, inst.dft.mask, inst.kspace.f1, inst.kspace.f2)
    for name, arr in zip(_INSTANCE_FILES, arrays):
        fileio.write_array(out / f"{name}.arr", arr)
    manifest = {
        "seed": cfg.seed,
        "height": cfg.instance.height,
        "width": cfg.instance.width,
        "mask_type": cfg.instance.mask_type,
        "requested_ratio": cfg.instance.ratio,
        "achieved_ratio": inst.achieved_ratio,
        "noise_std": cfg.instance.noise_std,
    }
    _dump_json(out / "manifest.json", manifest)
    print(_json(manifest))
    return 0


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    h, w = cfg.instance.height, cfg.instance.width
    instance = _load_instance(cfg, out)
    obj = build_objective(cfg, instance)
    if instance is None:
        X0 = TwoBlockPoint(np.ones(h * w), np.ones(h * w))
    else:
        X0 = obj.zero_filled()
    state, reason = lpam_run(obj, X0, cfg.solver)
    write_trace_csv(state.trace, out / "trace.csv")
    fileio.write_array(out / "recon1.arr", state.X.x1.reshape(h, w))
    fileio.write_array(out / "recon2.arr", state.X.x2.reshape(h, w))

    result: dict = {"exit_reason": reason, "iterations": state.k}
    if instance is not None:
        result["recon"] = {
            "channel1": metrics(state.X.x1.reshape(h, w), instance.truth1).as_dict(),
            "channel2": metrics(state.X.x2.reshape(h, w), instance.truth2).as_dict(),
        }
        result["zero_filled"] = {
            "channel1": metrics(X0.x1.reshape(h, w), instance.truth1).as_dict(),
            "channel2": metrics(X0.x2.reshape(h, w), instance.truth2).as_dict(),
        }
    _dump_json(out / "metrics.json", result)
    print(_json({"exit_reason": reason, "iterations": state.k}))
    if reason in (EXIT_NUMERIC, EXIT_LINE_SEARCH):
        print(f"error: solver ended in {reason} after {state.k} iterations", file=sys.stderr)
        return 2
    return 0


def cmd_audit(cfg: RunConfig, out: Path, trace_path: Path | None) -> int:
    path = trace_path or (out / "trace.csv")
    trace = read_trace_csv(path)
    obj = build_objective(cfg, _load_instance(cfg, out))
    report = audit_report(trace, cfg.solver, obj.lipschitz_estimate)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(out / "report.json", report)
    print(_json({"passed": report["passed"]}))
    return 0 if report["passed"] else 1


def cmd_metrics(x_path: str, y_path: str, squared_peak: bool) -> int:
    x = fileio.read_array(x_path)
    y = fileio.read_array(y_path)
    rep = metrics(np.real(x), np.real(y), squared_peak=squared_peak)
    print(_json(rep.as_dict()))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line, in any subcommand, as a ConfigError."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and an ``append`` default is copied before it is appended to."""
    p = _Parser(prog="lpam", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(name: str, summary: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path config override, e.g. solver.max_iter=50",
        )
        return sp

    # each flag only on the subcommand that reads what it sets
    sp = common("generate", "write a synthetic instance to disk")
    sp.add_argument("--seed", type=int, default=None, help="sets instance.seed")
    sp = common("solve", "run the solver on a generated instance")
    sp.add_argument("--mode", choices=("lpam", "bcd"), default=None, help="sets solver.mode")
    sp = common("audit", "run convergence audits on a trace")
    sp.add_argument("--trace", default=None, help="trace CSV (default: OUT/trace.csv)")
    sp = sub.add_parser("metrics", help="image quality metrics between two arrays")
    sp.add_argument("recon", help="reconstruction array file")
    sp.add_argument("truth", help="ground-truth array file")
    sp.add_argument("--squared-peak", action="store_true")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # every non-finite value is caught by an explicit check, so numpy's
        # floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            if args.command == "metrics":
                return cmd_metrics(args.recon, args.truth, args.squared_peak)
            mode, seed = getattr(args, "mode", None), getattr(args, "seed", None)
            cfg = load_config(args.config, args.override, mode, seed)
            out = Path(args.out)
            if args.command == "generate":
                return cmd_generate(cfg, out)
            if args.command == "solve":
                return cmd_solve(cfg, out)
            if args.command == "audit":
                trace = Path(args.trace) if args.trace else None
                return cmd_audit(cfg, out, trace)
            raise AssertionError(args.command)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

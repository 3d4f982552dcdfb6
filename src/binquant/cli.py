"""Command-line interface: solve, sweep, verify, and classify channel configs.

A channel config is one JSON document::

    {
      "prior": {"p0": 0.5},
      "phi0": {"components": [{"mean": -1.0, "stddev": 1.0, "weight": 1.0}]},
      "phi1": {"components": [{"mean": 1.0, "stddev": 1.0, "weight": 1.0}]},
      "search": {"lo": -11.0, "hi": 11.0},          # optional
      "solver": {"a_lo": 1e-6, "a_hi": 0.999999,    # optional
                 "tol_a": 1e-10, "max_iter": 200, "grid_points": 4096}
    }

Exit codes are a stable contract: 0 success, 1 config/usage error,
2 degenerate or information-free channel (nothing to solve) or another
solver error, 3 verification failure.  Machine output (JSON, CSV) is lossless; human-readable text uses 6
significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .density import DensityModel, GaussianComponent, Prior
from .errors import InvalidSpecError, QuantizerError
from .likelihood import ChannelSpec, channel_spec, classify_monotonicity, translate_log_concavity
from .oracle import grid_search, grid_size, structural_checks, sweep_levels
from .solver import QuantizerDesign, SolverConfig, predict_single_threshold, solve

__all__ = ["ConfigError", "load_config", "main", "cmd_solve", "cmd_sweep", "cmd_verify", "cmd_classify"]

#: Solver MI may trail the gridded oracle by at most this much (bits).
MI_GAP_TOL = 1e-4

CSV_HEADER = "a,f,g,F,mi_bits,n_roots,degenerate"


class ConfigError(QuantizerError, ValueError):
    """The config file is missing, malformed, or violates a field contract."""


def _get(mapping, key, path, expect=dict):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing required field '{path}'")
    value = mapping[key]
    if expect is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field '{path}' must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, expect):
        raise ConfigError(f"field '{path}' must be a {expect.__name__}, got {type(value).__name__}")
    return value


def _density_from_config(obj, path) -> DensityModel:
    comps = _get(obj, "components", f"{path}.components", expect=list)
    if not comps:
        raise ConfigError(f"'{path}.components' must not be empty")
    out = []
    for i, comp in enumerate(comps):
        cpath = f"{path}.components[{i}]"
        if not isinstance(comp, dict):
            raise ConfigError(f"'{cpath}' must be an object")
        out.append(
            GaussianComponent(
                mean=_get(comp, "mean", f"{cpath}.mean", expect=float),
                stddev=_get(comp, "stddev", f"{cpath}.stddev", expect=float),
                weight=_get(comp, "weight", f"{cpath}.weight", expect=float),
            )
        )
    return DensityModel(components=tuple(out))


def load_config(path: str) -> tuple[ChannelSpec, SolverConfig]:
    """Parse and validate a channel config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must contain a JSON object")

    try:
        prior = Prior(p0=_get(_get(raw, "prior", "prior"), "p0", "prior.p0", expect=float))
        density0 = _density_from_config(_get(raw, "phi0", "phi0"), "phi0")
        density1 = _density_from_config(_get(raw, "phi1", "phi1"), "phi1")

        search_lo = search_hi = None
        if "search" in raw:
            search = _get(raw, "search", "search")
            search_lo = _get(search, "lo", "search.lo", expect=float)
            search_hi = _get(search, "hi", "search.hi", expect=float)
        spec = channel_spec(prior, density0, density1, search_lo, search_hi)
    except InvalidSpecError as err:
        raise ConfigError(f"config {path!r}: {err}") from err

    solver_obj = _get(raw, "solver", "solver") if "solver" in raw else {}
    defaults = {field.name: field.default for field in dataclasses.fields(SolverConfig)}
    solver_kwargs = {}
    for key in solver_obj:
        if key not in defaults:
            raise ConfigError(f"unknown field 'solver.{key}' (known: {', '.join(defaults)})")
        value = _get(solver_obj, key, f"solver.{key}", expect=float)
        if type(defaults[key]) is int:
            if not value.is_integer():  # also NaN and +-inf
                raise ConfigError(f"field 'solver.{key}' must be an integer, got {value!r}")
            value = int(value)
        solver_kwargs[key] = value
    try:
        cfg = SolverConfig(**solver_kwargs)
    except InvalidSpecError as err:
        # every SolverConfig message starts with the name of the field it rejects
        raise ConfigError(f"config {path!r}: solver.{err}") from err
    return spec, cfg


def _design_payload(design: QuantizerDesign, predicted_single: bool) -> dict:
    return {
        "a_star": design.a_star,
        "r_star": design.r_star,
        "thresholds": list(design.thresholds),
        "mapping": design.mapping,
        "channel": {"a11": design.channel.a11, "a22": design.channel.a22},
        "mi_bits": design.mi_bits,
        "stationarity_residual": design.stationarity_residual,
        "iterations": design.iterations,
        "single_threshold_predicted": predicted_single,
    }


def _design_text(design: QuantizerDesign, predicted_single: bool) -> str:
    thresholds = ", ".join(f"{h:.6g}" for h in design.thresholds) or "(none)"
    lines = [
        f"a_star                 {design.a_star:.6g}",
        f"r_star                 {design.r_star:.6g}",
        f"thresholds             {thresholds}",
        f"mapping                {design.mapping}",
        f"channel a11, a22       {design.channel.a11:.6g}, {design.channel.a22:.6g}",
        f"mi_bits                {design.mi_bits:.6g}",
        f"stationarity_residual  {design.stationarity_residual:.6g}",
        f"iterations             {design.iterations}",
        f"single-threshold optimal: {'yes' if predicted_single else 'no'}",
    ]
    return "\n".join(lines)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as err:
            raise ConfigError(f"cannot write output {out_path!r}: {err}") from err
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_solve(config_path: str, output_format: str = "text", out_path: str | None = None) -> int:
    spec, cfg = load_config(config_path)
    design = solve(spec, cfg)
    predicted = predict_single_threshold(spec, cfg.grid_points)
    if output_format == "json":
        _emit(json.dumps(_design_payload(design, predicted), indent=2) + "\n", out_path)
    else:
        _emit(_design_text(design, predicted) + "\n", out_path)
    return 0


def cmd_sweep(config_path: str, a_min: float, a_max: float, steps: int, out_csv: str) -> int:
    if not (0.0 < a_min < a_max < 1.0):
        raise ConfigError(f"need 0 < a_min < a_max < 1, got {a_min!r}, {a_max!r}")
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps!r}")
    spec, cfg = load_config(config_path)
    rows = sweep_levels(spec, np.linspace(a_min, a_max, steps), cfg.grid_points)
    # a SweepRow is the tuple of the CSV's columns, in order
    lines = [CSV_HEADER, *("%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d" % row for row in rows)]
    _emit("\n".join(lines) + "\n", out_csv)
    return 0


def cmd_verify(config_path: str, n_thresholds: int, grid_step: float) -> int:
    spec, cfg = load_config(config_path)
    grid_size(spec, n_thresholds, grid_step)  # reject bad oracle arguments before solving
    design = solve(spec, cfg)
    oracle = grid_search(spec, n_thresholds, grid_step)
    checks = structural_checks(spec, grid_points=cfg.grid_points)
    gap = design.mi_bits - oracle.best_mi_bits

    lines = [
        f"solver mi_bits        {design.mi_bits:.6g} ({len(design.thresholds)} thresholds)",
        f"oracle best mi_bits   {oracle.best_mi_bits:.6g} "
        f"(n={n_thresholds}, step={grid_step:g}, {oracle.n_evaluated} tuples)",
        f"oracle thresholds     {', '.join(f'{h:.6g}' for h in oracle.best_thresholds)}",
        f"solver - oracle gap   {gap:.6g} (must be >= {-MI_GAP_TOL:g})",
        "",
        f"{'check':<29} {'result':<6} {'worst violation':<18} tolerance",
    ]
    for check in checks.values():
        lines.append(
            f"{check.name:<29} {'PASS' if check.passed else 'FAIL':<6} "
            f"{check.worst_violation:<18.6g} {check.tolerance:g}"
        )
    ok = gap >= -MI_GAP_TOL and all(c.passed for c in checks.values())
    lines.append("")
    lines.append("verification PASSED" if ok else "verification FAILED")
    _emit("\n".join(lines) + "\n", None)
    return 0 if ok else 3


def cmd_classify(config_path: str) -> int:
    spec, cfg = load_config(config_path)
    mono = classify_monotonicity(spec, cfg.grid_points)
    shape = translate_log_concavity(spec, cfg.grid_points)
    predicted = predict_single_threshold(spec, cfg.grid_points)
    lines = [
        f"{mono.verdict.value}; single-threshold optimal: {'yes' if predicted else 'no'}",
        f"monotonicity grid      {mono.grid_points} points"
        + (" (flat log-ratio)" if mono.flat else ""),
        f"translate structure    {'shift ' + format(shape.shift, '.6g') if shape.shift_detected else 'none'}",
        f"density0 log-concave   {'yes' if shape.log_concave else 'no'}",
        f"density0 log-convex    {'yes' if shape.log_convex else 'no'}",
    ]
    _emit("\n".join(lines) + "\n", None)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the config/usage code.

    argparse exits 2 on a usage error, which this CLI reserves for a
    degenerate channel.  Subparsers are built from the same class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (argparse reads the terminal size per argument)."""
    parser = _Parser(
        prog="binquant",
        description="Design and certify mutual-information-maximizing binary quantizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a channel config for the optimal quantizer")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    p_solve.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="tabulate the level functionals to CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--a-min", type=float, default=0.01)
    p_sweep.add_argument("--a-max", type=float, default=0.99)
    p_sweep.add_argument("--steps", type=int, default=99)
    p_sweep.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="certify the solver against the brute-force oracle")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--n-thresholds", type=int, default=1)
    p_verify.add_argument("--grid-step", type=float, default=0.01)

    p_classify = sub.add_parser("classify", help="monotonicity / translate-concavity verdicts")
    p_classify.add_argument("--config", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.format, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.a_min, args.a_max, args.steps, args.out)
        if args.command == "verify":
            return cmd_verify(args.config, args.n_thresholds, args.grid_step)
        if args.command == "classify":
            return cmd_classify(args.config)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, InvalidSpecError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except QuantizerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

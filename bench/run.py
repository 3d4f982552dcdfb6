"""The binquant benchmark: one seeded, closed-loop client of ``binquant.cli``.

Usage, from the repository root::

    python3 bench/run.py --workload solve|tabulate|certify --seed N --seconds S --trace 0|1

One process, one op in flight: each op is one CLI command run in-process
through ``binquant.cli.main(argv)`` on a generated config, and the next op
starts when it returns.  Every output is checked against the certificate of
``certificate.py``, which imports nothing from ``binquant``; certificates
and checks run outside the timed region.  One warm-up op is excluded.

Only generated channels that meet the program's stated preconditions are
timed (see ``certificate.precondition_failure``); each op of a candidate
screened out on the way runs once after the measurement, untimed, and its
verdict is printed as a known defect.  It is not in the result line.

The client runs whole passes over the ops, at least three, and stops after
the pass that ends nearest to ``--seconds`` of measured time.  The speed of
a shared host drifts by a third over minutes, so before the first op and
after every op the client times a fixed numpy/scipy loop that does not
touch ``binquant`` (the yardstick).  An op's latency is reported at
yardstick speed: its time divided by the mean of the two yardstick times
around it, times :data:`yardstick.NOMINAL_S`, and the median over passes.
Each set-up time is scaled by the yardstick timed next in its interpreter.
The raw times are still printed as ``op_ms_p50``/``ops_per_s``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs each op
untraced and then traced, in whole passes (so counts repeat exactly), and
reports the per-layer metrics.  Every per-layer metric is in every traced
run: a count per op of a function the workload never calls reads 0, and a
per-call metric of it comes from one traced reference call on the shipped
example2 channel, marked as such.  Human-readable lines come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed / attempted`` is the fail rate: an op fails when it raises, exits
non-zero, or its output fails the check.
"""

from __future__ import annotations

import os

# one thread per numerical library, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import certificate
import spans
import workloads
from yardstick import NOMINAL_S, yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIPPED_DIR = ROOT / "configs"
OUT = ROOT / ".bench_out"

#: Fewest fresh interpreters started to measure set-up time; the median is reported.
SETUP_REPEATS = 7

#: Candidates drawn for one generated slot before the run gives up.
MAX_ATTEMPTS = 20

#: Fewest passes over the ops; an op's latency is its median over them.
MIN_PASSES = 3


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import binquant.cli
for path in sys.argv[3:]:
    binquant.cli.load_config(path)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from yardstick import yardstick
print(repr(setup), repr(yardstick()))
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(config_paths) -> tuple[float, float]:
    """Time, in a fresh interpreter, to import binquant.cli and load every config.

    Returns that time and the yardstick's, timed next in the same interpreter.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent),
         *map(str, config_paths)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, ruler = map(float, proc.stdout.strip().splitlines()[-1].split())
    return setup, ruler


def run_op(op, main) -> tuple[float, int | str, str]:
    """Run one op; returns (seconds, exit code or the exception, output text).

    The output text is the op's result: standard output, the ``--out`` file,
    or the standard error of a non-zero exit.
    """
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(list(op.argv))
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        status = f"raised {exc!r}"
    elapsed = time.perf_counter() - t0
    if status != 0:
        return elapsed, status, err.getvalue()
    if op.out_path is not None:
        return elapsed, status, op.out_path.read_text()
    return elapsed, status, out.getvalue()


class Checker:
    """Judges op outputs against the certificates of their channels."""

    def __init__(self, configs, certs):
        self._configs = configs
        self._certs = certs

    def __call__(self, op, status, text) -> str | None:
        """None if the op succeeded, else why it failed."""
        if status != 0:
            return f"exit {status}: {text.strip()}" if isinstance(status, int) else status
        name = op.name.split("/")[0]
        cert = self._certs[name]
        if op.kind == "solve":
            return certificate.check_solve(self._configs[name], cert, text)
        if op.kind == "sweep":
            return certificate.check_sweep(cert, text)
        return certificate.check_verify(cert, text)


def certificates(paths: dict) -> dict:
    """Certificates of every config, computed in a separate interpreter.

    The cell arrays take far more memory than the program under test, so
    they stay out of this process and out of ``peak_rss_mib``.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(certificate.__file__)), *map(str, paths.values())],
        capture_output=True, text=True, timeout=170, check=True,
    )
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: certificate.Certificate(**raw[name]) for name in paths}


def inputs(workload: str, seed: int, run_dir: Path):
    """The channels to time, the screened-out candidates, and every config path and certificate.

    Shipped configs always run.  Each generated slot takes its first
    candidate whose certificate finds it within the program's preconditions;
    the candidates drawn before it are the screened-out ones.  Returns
    (timed, excluded, paths, certs); the first two map names to configs.
    """
    batch = workloads.shipped_configs(workload, SHIPPED_DIR)
    todo = dict.fromkeys(workloads.slots(workload), 0)
    timed, excluded, paths, certs = {}, {}, {}, {}
    while True:
        batch.update(workloads.candidate(workload, seed, slot, attempt) for slot, attempt in todo.items())
        if not batch:
            return timed, excluded, paths, certs
        paths.update(workloads.write_configs(batch, run_dir))
        certs.update(certificates({name: paths[name] for name in batch}))
        for name, config in batch.items():
            slot = name.split("-")[0]
            if slot in todo and certs[name].excluded is not None:
                excluded[name] = config
                todo[slot] += 1
                if todo[slot] == MAX_ATTEMPTS:
                    raise RuntimeError(f"no admissible channel in {MAX_ATTEMPTS} candidates for {slot}")
            else:
                timed[name] = config
                todo.pop(slot, None)
        batch = {}


def known_defects(workload, excluded, paths, certs, checker, main, run_dir) -> list[str]:
    """Run each op of the screened-out channels once, untimed; one line per op."""
    ops = workloads.build_ops(workload, excluded, paths, run_dir)
    lines = []
    for op in ops:
        _, status, text = run_op(op, main)
        verdict = checker(op, status, text) or "passed"
        lines.append(f"screened out {op.name} ({certs[op.name.split('/')[0]].excluded}): {verdict}")
    return lines


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def enough(busy: float, last: float, seconds: float) -> bool:
    """True when the whole pass that just ended is the one nearest to ``seconds``."""
    return busy + last / 2.0 >= seconds


def closed_loop(ops, main, seconds: float, checker, min_passes: int, scale, between_passes=None):
    """Run whole passes over ``ops`` for about ``seconds``, and at least ``min_passes``.

    Whole passes run every op equally often.  ``scale`` (a function returning
    seconds) runs before each pass and after every op; each record's value is
    that op's time over the mean of the two ``scale`` times around it.
    ``between_passes`` runs after each pass, outside the measured time.
    Returns the per-op records (op, seconds, status, text, value), their
    verdicts and the measured seconds.
    """
    records = []
    busy = 0.0
    while True:
        t0 = time.perf_counter()
        before = scale()
        for op in ops:
            dt, status, text = run_op(op, main)
            after = scale()
            records.append((op, dt, status, text, dt / (0.5 * (before + after))))
            before = after
        last = time.perf_counter() - t0
        busy += last
        if between_passes is not None:
            between_passes()
        if len(records) >= min_passes * len(ops) and enough(busy, last, seconds):
            break
    verdicts = [(op.name, checker(op, status, text)) for op, _, status, text, _ in records]
    return records, verdicts, busy


def end_to_end(ops, main, seconds, checker, config_paths):
    """End-to-end metrics; set-up is sampled between passes so the samples span the run."""
    setup, setup_raw, yardsticks = [], [], []

    def timed_yardstick():
        yardsticks.append(yardstick())
        return yardsticks[-1]

    def sample_setup():
        seconds_taken, ruler = measure_setup(config_paths)
        setup_raw.append(seconds_taken)
        setup.append(NOMINAL_S * seconds_taken / ruler)

    sample_setup()
    run_op(ops[0], main)  # warm-up, excluded
    records, verdicts, busy = closed_loop(ops, main, seconds, checker, MIN_PASSES, timed_yardstick, sample_setup)
    while len(setup) < SETUP_REPEATS:
        sample_setup()
    relative = {}
    for op, _, _, _, value in records:
        relative.setdefault(op.name, []).append(value)
    op_ms = 1e3 * NOMINAL_S * np.array([statistics.median(v) for v in relative.values()])
    metrics = {
        "op_norm_ms_gmean": (float(np.exp(np.log(op_ms).mean())), "ms"),
        "batch_norm_s": (float(op_ms.sum()) / 1e3, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    raw_ms = [1e3 * r[1] for r in records]
    notes = [
        f"samples {len(records)} ops in {len(records) // len(ops)} passes, {len(ops)} distinct ops, "
        f"{len(setup)} set-ups (raw median {statistics.median(setup_raw):.4f} s), {busy:.3f} s measured",
        f"distinct ops at yardstick speed: p50 {percentile(op_ms, 50):.4f} ms  max {op_ms.max():.4f} ms",
        f"every sample, raw: op_ms_p50 {percentile(raw_ms, 50):.4f}  ops_per_s {len(records) / busy:.4f}",
        f"yardstick: {len(yardsticks)} runs, median {1e3 * statistics.median(yardsticks):.4f} ms, "
        f"min {1e3 * min(yardsticks):.4f} ms, nominal {1e3 * NOMINAL_S:g} ms",
    ]
    return metrics, verdicts, notes


def traced_run(ops, main, seconds, checker, reference):
    """Run each op untraced and then traced, in whole passes; then the reference calls.

    The two runs of an op are adjacent in time, so a drift in machine speed
    does not show up as tracing overhead.  ``reference`` maps a layer entry
    to a call of it on one channel; an entry the passes never called is
    called once afterwards, so its per-call metrics have a value.
    """
    tracer = spans.Tracer()
    run_op(ops[0], main)  # warm-up, excluded
    plain_ms, traced_ms, verdicts = [], [], []
    busy = 0.0
    while not traced_ms or not enough(busy, last, seconds):
        t0 = time.perf_counter()
        for op in ops:
            dt0, st0, text0 = run_op(op, main)
            with spans.traced(tracer):
                dt1, st1, text1 = run_op(op, main)
            plain_ms.append(1e3 * dt0)
            traced_ms.append(1e3 * dt1)
            verdicts.append((op.name, checker(op, st0, text0)))
            same = (st0, text0) == (st1, text1)
            verdicts.append((op.name, checker(op, st1, text1) if same else "traced output differs from untraced"))
        last = time.perf_counter() - t0
        busy += last
    work_end = len(tracer)
    called = {tracer.names[i] for i in set(tracer.name)}
    missing = [entry for entry in reference if entry not in called]
    with spans.traced(tracer):
        for entry in missing:
            reference[entry]()
    table = spans.SpanTable(tracer)
    work = np.arange(len(tracer)) < work_end
    metrics, borrowed = layer_metrics(table, work)
    p50_plain, p50_traced = percentile(plain_ms, 50), percentile(traced_ms, 50)
    metrics["trace.overhead_pct"] = (100.0 * (p50_traced - p50_plain) / p50_plain, "%")
    op_s = table.dur[table.select("cli.main", work)].sum()
    notes = [
        f"traced passes {len(traced_ms) // len(ops)}, spans {len(tracer)}",
        f"op_ms_p50 untraced {p50_plain:.4f} traced {p50_traced:.4f}",
        "layer self share of op time  "
        + "  ".join(f"{layer} {table.layer_self(layer, work) / op_s:.3f}" for layer in spans.LAYERS),
        "share of op time in oracle.grid_search "
        f"{table.dur[table.select('oracle.grid_search', work)].sum() / op_s:.3f}",
        "reference calls on example2 (never called by this workload): " + (", ".join(missing) or "none"),
    ]
    return metrics, borrowed, verdicts, notes, tracer


def layer_metrics(t, work) -> tuple[dict[str, tuple[float, str]], set[str]]:
    """Per-layer metrics from the spans of the traced passes (mask ``work``).

    Counts per op are the workload's own, and read 0 for a function it never
    calls.  A per-call metric (a time, a count per solve, a ratio) of such a
    function is taken from the reference calls (the spans outside ``work``);
    the names of those metrics are returned as the second value.
    """
    ops = int(t.select("cli.main", work).sum())
    borrowed = set()
    out = {}

    def calls(*names, where=None):
        """Spans of ``names`` in the workload, or else in the reference calls."""
        for within in (work, ~work):
            mask = np.zeros(t.name.size, dtype=bool)
            for n in names:
                mask |= t.select(n, within)
            if where is not None:
                mask &= where
            if mask.any():
                return mask, within is not work
        return mask, False

    def per_op(metric, name, values=None):
        mask = t.select(name, work)
        total = mask.sum() if values is None else values[mask].sum()
        out[metric] = (float(total) / ops, "count/op")

    def per_call(metric, unit, value, *names, where=None):
        mask, ref = calls(*names, where=where)
        if ref:
            borrowed.add(metric)
        out[metric] = (value(mask), unit)

    def mean(values, scale):
        return lambda mask: scale * float(values[mask].mean())

    solves, from_ref = calls("solver.solve")
    within = ~work if from_ref else work
    stat = t.select("channel.stationarity", within)  # only the solver calls F
    out["solver.f_evals"] = (float(stat.sum()) / solves.sum(), "count/solve")
    out["solver.f_useful_ratio"] = (float((t.extra[stat] != spans.RAISED).sum()) / stat.sum(), "ratio")
    out["solver.self_ms"] = (1e3 * t.layer_self("solver", within) / solves.sum(), "ms/solve")
    if from_ref:
        borrowed |= {"solver.f_evals", "solver.f_useful_ratio", "solver.self_ms"}
    per_call("solver.predict_ms", "ms", mean(t.dur, 1e3), "solver.predict_single_threshold")
    per_op("channel.stationarity_calls", "channel.stationarity")
    per_call("channel.stationarity_us", "us", mean(t.dur, 1e6), "channel.stationarity")
    per_call("channel.level_functionals_self_us", "us", mean(t.self_time, 1e6), "channel.level_functionals")
    per_op("channel.channel_matrix_calls", "channel.channel_matrix")
    per_call("channel.channel_matrix_us", "us", mean(t.dur, 1e6), "channel.channel_matrix")
    per_op("likelihood.find_level_set_calls", "likelihood.find_level_set")
    per_call("likelihood.find_level_set_self_us", "us", mean(t.self_time, 1e6), "likelihood.find_level_set")
    per_op("likelihood.posterior_calls", "likelihood.posterior")
    per_op("likelihood.posterior_points", "likelihood.posterior", t.arg)
    per_call("likelihood.posterior_self_us", "us", mean(t.self_time, 1e6), "likelihood.posterior")
    per_call("likelihood.roots_per_level", "count", mean(t.extra, 1.0), "likelihood.find_level_set")
    per_call("likelihood.classify_ms", "ms", mean(t.dur, 1e3),
             "likelihood.classify_monotonicity", "likelihood.translate_log_concavity")
    for fn in ("log_pdf", "cdf"):
        per_op(f"density.{fn}_calls", f"density.{fn}")
        per_op(f"density.{fn}_points", f"density.{fn}", t.arg)
        per_call(f"density.{fn}_self_us", "us", mean(t.self_time, 1e6), f"density.{fn}")
    for n in (1, 2, 3):
        per_call(f"oracle.grid_search_n{n}_ms", "ms", mean(t.dur, 1e3), "oracle.grid_search", where=t.arg == n)
        per_call(f"oracle.tuples_per_s_n{n}", "1/s", lambda m: float(t.extra[m].sum()) / float(t.dur[m].sum()),
                 "oracle.grid_search", where=t.arg == n)
    per_call("oracle.structural_checks_ms", "ms", mean(t.dur, 1e3), "oracle.structural_checks")
    per_call("oracle.sweep_levels_ms", "ms", mean(t.dur, 1e3), "oracle.sweep_levels")
    out["cli.self_ms"] = (1e3 * t.layer_self("cli", work) / ops, "ms/op")
    per_call("cli.load_config_ms", "ms", mean(t.dur, 1e3), "cli.load_config")
    return out, borrowed


def reference_calls(config_path) -> dict:
    """A call of each layer entry on one channel, through the module bindings, by span name."""
    from binquant import cli

    spec, cfg = cli.load_config(str(config_path))
    lo, hi = certificate.search_window(json.loads(Path(config_path).read_text()))

    def grid_searches():
        for n, points in workloads.ORACLE_POINTS.items():
            cli.grid_search(spec, n, (hi - lo) / (points - 1))

    return {
        "cli.load_config": lambda: cli.load_config(str(config_path)),
        "solver.solve": lambda: cli.solve(spec, cfg),
        "solver.predict_single_threshold": lambda: cli.predict_single_threshold(spec, cfg.grid_points),
        "oracle.sweep_levels": lambda: cli.sweep_levels(spec, certificate.SWEEP_LEVELS, cfg.grid_points),
        "oracle.structural_checks": lambda: cli.structural_checks(spec, grid_points=cfg.grid_points),
        "oracle.grid_search": grid_searches,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "binquant" / "cli.py").is_file() or not SHIPPED_DIR.is_dir():
        print(f"error: no binquant sources under {SRC} or no {SHIPPED_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import binquant.cli

    if Path(binquant.cli.__file__).resolve().parent != (SRC / "binquant").resolve():
        print(f"error: imported binquant from {binquant.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    configs, excluded, paths, certs = inputs(args.workload, args.seed, run_dir)
    ops = workloads.build_ops(args.workload, configs, paths, run_dir)
    random.Random(args.seed).shuffle(ops)
    checker = Checker({**configs, **excluded}, certs)

    def cli_main(cli_argv):
        return binquant.cli.main(cli_argv)  # looked up per call, so tracing applies

    env = _environment()
    print(f"binquant benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()) + " threads=1")
    timed_certs = [certs[name] for name in configs]
    print(f"inputs channels={len(configs)} ops/pass={len(ops)} "
          f"single_gaussian_share={sum(c.single_gaussian for c in timed_certs) / len(configs):.4f} "
          f"non_monotone_share={sum(c.non_monotone for c in timed_certs) / len(configs):.4f} "
          f"screened_out={len(excluded)}")

    if args.trace:
        ref = reference_calls(SHIPPED_DIR / "example2.json")
        metrics, borrowed, verdicts, notes, tracer = traced_run(ops, cli_main, args.seconds, checker, ref)
        tracer.save(run_dir / "spans.npz")
        notes.append(f"spans written to {(run_dir / 'spans.npz').relative_to(ROOT)}")
    else:
        borrowed = set()
        metrics, verdicts, notes = end_to_end(ops, cli_main, args.seconds, checker, [paths[n] for n in configs])
    notes += known_defects(args.workload, excluded, paths, certs, checker, cli_main, run_dir)

    failed = sum(v is not None for _, v in verdicts)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}" + ("  (reference call on example2)" if name in borrowed else ""))
    print(f"{'fail_rate':<36} {failed / len(verdicts):.6g} ({failed}/{len(verdicts)} ops)")
    for name, reason in sorted({(n, v) for n, v in verdicts if v is not None}):
        print(f"failure {name}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A traced benchmark run ends in a result line that a strict JSON parser accepts.

The benchmark prints its per-layer metrics as JSON.  A metric that reads
NaN (a ratio 0/0, the mean of no spans) prints as ``NaN``, which is not
JSON, so the run's last line would not parse as a result.  This runs one
traced pass of ``solve`` on a mixture and on a Gaussian pair, and one of
all three op kinds the benchmark times (``solve``, ``sweep`` and ``verify``
at n = 1, 2 and 3), each with the benchmark's own reference calls, and
checks every metric.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402
from binquant import cli  # noqa: E402


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _config(name):
    return str(run.SHIPPED_DIR / f"{name}.json")


def _solve_op(name):
    return workloads.Op("solve", name, ("solve", "--config", _config(name), "--format", "json"))


def _assert_metrics_finite_and_strict_json(ops):
    metrics, *_ = run.traced_run(
        ops,
        lambda argv: cli.main(argv),  # looked up per call, so tracing applies
        0.0,
        lambda op, status, text: None,
        run.reference_calls(run.SHIPPED_DIR / "example2.json"),
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    values = {name: value for name, (value, _) in metrics.items()}
    assert sorted(name for name, value in values.items() if not math.isfinite(value)) == []
    assert json.loads(json.dumps(values), parse_constant=_not_json) == values


def test_traced_solve_metrics_are_finite_and_strict_json():
    _assert_metrics_finite_and_strict_json([_solve_op("fig5"), _solve_op("example2")])


def test_traced_metrics_of_every_op_kind_are_finite_and_strict_json(tmp_path):
    # every n: a per-n grid-search metric with no spans of its n would divide by zero
    out = tmp_path / "fig5.csv"
    sweep = ("sweep", "--config", _config("fig5"), "--a-min", "0.01", "--a-max", "0.99", "--steps", "99")
    ops = [
        _solve_op("fig5"),
        workloads.Op("sweep", "fig5", (*sweep, "--out", str(out)), out),
        *(
            workloads.Op("verify", f"example2/n{n}",
                         ("verify", "--config", _config("example2"), "--n-thresholds", str(n), "--grid-step", step))
            for n, step in ((1, "0.05"), (2, "0.5"), (3, "2.0"))
        ),
    ]
    _assert_metrics_finite_and_strict_json(ops)

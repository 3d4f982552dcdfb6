"""A traced benchmark run ends in a result line that a strict JSON parser accepts.

The benchmark prints its per-layer metrics as JSON.  A metric that reads
NaN (a ratio 0/0, the mean of no spans) prints as ``NaN``, which is not
JSON, so the run's last line would not parse as a result.  This runs one
traced pass of ``solve`` on a mixture and on a Gaussian pair, with the
benchmark's own reference calls, and checks every metric.
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


def test_traced_solve_metrics_are_finite_and_strict_json():
    def solve_op(name):
        config = str(run.SHIPPED_DIR / f"{name}.json")
        return workloads.Op("solve", name, ("solve", "--config", config, "--format", "json"))

    ops = [solve_op("fig5"), solve_op("example2")]
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

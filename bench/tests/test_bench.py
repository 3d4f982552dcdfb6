"""Self-tests of the benchmark: seeded inputs, the certificate and screen, tracing, failure counting."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import certificate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from binquant import cli  # noqa: E402

SHIPPED = ROOT / "configs"


def _shipped(name):
    return json.loads((SHIPPED / f"{name}.json").read_text())


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _candidates(workload, seed, attempt):
    return dict(workloads.candidate(workload, seed, slot, attempt) for slot in workloads.slots(workload))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(tmp_path, workload):
    first = workloads.write_configs(_candidates(workload, 7, 0), tmp_path / "a")
    again = workloads.write_configs(_candidates(workload, 7, 0), tmp_path / "b")
    other = workloads.write_configs(_candidates(workload, 8, 0), tmp_path / "c")
    retry = workloads.write_configs(_candidates(workload, 7, 1), tmp_path / "d")
    assert list(first) == list(again)
    assert all(first[n].read_bytes() == again[n].read_bytes() for n in first)
    assert any(first[n].read_bytes() != other[n].read_bytes() for n in first)
    assert {p.read_bytes() for p in retry.values()}.isdisjoint(p.read_bytes() for p in first.values())
    for path in first.values():
        cli.load_config(str(path))


@pytest.mark.parametrize("name, bits", [("example2", 0.261383), ("fig5", 0.230166)])
def test_certificate_hits_reference_values(name, bits):
    assert round(certificate.certify(_shipped(name)).mi_bits, 6) == bits


@pytest.mark.parametrize("name", workloads.SHIPPED)
def test_screen_admits_the_shipped_configs(name):
    assert certificate.certify(_shipped(name)).excluded is None


def _gaussians(*triples):
    return {"components": [{"mean": m, "stddev": s, "weight": w} for m, s, w in triples]}


@pytest.mark.parametrize(
    "config, reason",
    [
        # F has two +/- zeros; solve returns 0.0506 bits where 0.3866 is feasible
        ({"prior": {"p0": 0.5}, "phi0": _gaussians((-1.0, 1.0, 0.9), (20.0, 0.003, 0.1)),
          "phi1": _gaussians((0.0, 5.0, 1.0))}, "2 peaks"),
        # near-equal variances: level-set roots leave the window inside verify's levels
        ({"prior": {"p0": 0.617192}, "phi0": _gaussians((1.538326, 2.69191, 1.0)),
          "phi1": _gaussians((2.17405, 2.72186, 1.0))}, "window edges"),
        # barely overlapping densities: every level is degenerate and solve exits 2
        ({"prior": {"p0": 0.486795},
          "phi0": _gaussians((-3.145392, 0.064241, 0.312646), (-2.059055, 0.079749, 0.326437),
                             (-1.955807, 0.081427, 0.360917)),
          "phi1": _gaussians((2.259822, 0.430641, 1.0))}, "error probabilities"),
    ],
)
def test_screen_rejects_channels_outside_the_preconditions(config, reason):
    cert = certificate.certify(config)
    assert reason in cert.excluded
    assert cert.mi_bits > 0.0


def test_screened_out_candidates_are_replaced_and_kept(tmp_path, monkeypatch):
    # on this seed the first candidate for mix07 has a two-peaked level-set MI
    monkeypatch.setattr(workloads, "GENERATED", {"solve": (0, 8)})
    monkeypatch.setattr(workloads, "SHIPPED_USED", {"solve": ()})
    timed, excluded, paths, certs = run.inputs("solve", 1650668632, tmp_path)
    assert "mix07" in excluded and "mix07-1" in timed
    assert len(timed) == 8 and set(paths) == set(certs) == set(timed) | set(excluded)
    assert all(certs[n].excluded is None for n in timed)
    assert all(certs[n].excluded is not None for n in excluded)


def test_traced_solve_equals_untraced():
    argv = ["solve", "--config", str(SHIPPED / "fig5.json"), "--format", "json"]
    plain = _cli_output(argv)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = _cli_output(argv)
    assert traced == plain
    table = spans.SpanTable(tracer)
    assert table.select("channel.stationarity", np.ones(len(tracer), dtype=bool)).sum() > 0
    assert not hasattr(cli.solve, "__wrapped__")


def _shifted_design(argv):
    """A solve that moves every threshold by 0.3 and reports that design's true MI."""
    status, text = _cli_output(argv)
    design = json.loads(text)
    config = json.loads(Path(argv[2]).read_text())
    design["thresholds"] = [h + 0.3 for h in design["thresholds"]]
    design["mi_bits"] = certificate._design_mi(config, design["thresholds"], design["mapping"])
    print(json.dumps(design))
    return status


@pytest.mark.parametrize(
    "program, reason",
    [
        (lambda argv: cli.main(argv), None),
        (_shifted_design, "below the certificate"),
        (lambda argv: 3, "exit 3"),
    ],
)
def test_wrong_output_counts_as_failed(tmp_path, program, reason):
    configs = {"example2": _shipped("example2")}
    paths = workloads.write_configs(configs, tmp_path)
    ops = workloads.build_ops("solve", configs, paths, tmp_path)
    checker = run.Checker(configs, {n: certificate.certify(c) for n, c in configs.items()})
    records, verdicts, _ = run.closed_loop(ops, program, 0.0, checker, 1, run.yardstick)
    assert len(records) == len(verdicts) == 1
    assert records[0][4] > 0.0
    verdict = verdicts[0][1]
    if reason is None:
        assert verdict is None
    else:
        assert reason in verdict


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    configs = {"fig5": _shipped("fig5")}
    paths = workloads.write_configs(configs, tmp_path)
    ops = workloads.build_ops("tabulate", configs, paths, tmp_path)
    checker = run.Checker(configs, {n: certificate.certify(c) for n, c in configs.items()})
    reference = run.reference_calls(SHIPPED / "example2.json")
    metrics, borrowed, verdicts, _, _ = run.traced_run(ops, lambda argv: cli.main(argv), 0.0, checker, reference)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in per_layer}
    assert all(v is None for _, v in verdicts)
    # a sweep never calls F: its own count is 0, and F's per-call time comes from a reference solve
    assert metrics["channel.stationarity_calls"][0] == 0.0
    assert {"channel.stationarity_us", "solver.f_evals"} <= borrowed
    assert "oracle.sweep_levels_ms" not in borrowed

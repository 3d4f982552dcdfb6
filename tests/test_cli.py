"""Command-line surface: output formats, exit codes, and file schemas."""

import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import binquant.cli as cli
from binquant import OracleResult, channel, oracle, solve
from binquant.cli import load_config, main
from tests.conftest import CONFIG_DIR

EXAMPLE1 = str(CONFIG_DIR / "example1.json")
EXAMPLE2 = str(CONFIG_DIR / "example2.json")
FIG5 = str(CONFIG_DIR / "fig5.json")
TWO_PEAKS = str(CONFIG_DIR / "mixture_two_peaks.json")
SHIPPED = [EXAMPLE1, EXAMPLE2, FIG5, TWO_PEAKS]
# generated channels (bench/workloads.candidate) whose correct designs an
# earlier set of structural checks failed
VERIFY_CHANNELS = [
    str(Path(__file__).parent / "data" / "verify" / f"{name}.json")
    for name in (
        "solve-6-mix02-1", "solve-8-mix03", "tabulate-2-mix01-1",  # f' ~ 1e-11
        "solve-1-mix02", "solve-3-mix04", "tabulate-2-mix09-1",  # F changes sign 3 times
    )
]


def _single_gaussian_config(solver_fields):
    return (
        '{"prior": {"p0": 0.5},'
        ' "phi0": {"components": [{"mean": -1, "stddev": 1, "weight": 1}]},'
        ' "phi1": {"components": [{"mean": 1, "stddev": 1, "weight": 1}]},'
        ' "solver": {%s}}' % solver_fields
    )


class TestConfigLoading:
    def test_shipped_configs_parse(self):
        for path in (EXAMPLE1, EXAMPLE2, FIG5, TWO_PEAKS):
            spec, cfg = load_config(path)
            assert spec.search_lo < spec.search_hi
            assert cfg.tol_a == 1e-10

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            load_config("/nonexistent/config.json")

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"prior\": oops\n}")
        with pytest.raises(cli.ConfigError, match="line 2"):
            load_config(str(path))

    def test_missing_field_reports_path(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"prior": {"p0": 0.5}, "phi0": {"components": []}}')
        with pytest.raises(cli.ConfigError, match="phi0.components"):
            load_config(str(path))

    def test_invalid_value_reports_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"prior": {"p0": 0.5},'
            ' "phi0": {"components": [{"mean": 0, "stddev": -1, "weight": 1}]},'
            ' "phi1": {"components": [{"mean": 1, "stddev": 1, "weight": 1}]}}'
        )
        with pytest.raises(cli.ConfigError, match="stddev"):
            load_config(str(path))

    def test_solver_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"prior": {"p0": 0.5},'
            ' "phi0": {"components": [{"mean": -1, "stddev": 1, "weight": 1}]},'
            ' "phi1": {"components": [{"mean": 1, "stddev": 1, "weight": 1}]},'
            ' "search": {"lo": -15, "hi": 15},'
            ' "solver": {"a_lo": 0.01, "a_hi": 0.99, "grid_points": 2048}}'
        )
        spec, cfg = load_config(str(path))
        assert (spec.search_lo, spec.search_hi) == (-15.0, 15.0)
        assert (cfg.a_lo, cfg.a_hi, cfg.grid_points) == (0.01, 0.99, 2048)

    @pytest.mark.parametrize(
        "field, value",
        [("grid_points", "NaN"), ("grid_points", "Infinity"), ("max_iter", "-Infinity"), ("grid_points", "4096.7")],
    )
    def test_non_integral_count_exits_1_naming_the_field(self, field, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(_single_gaussian_config(f'"{field}": {value}'))
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"solver.{field}" in err

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_tol_a_exits_1_naming_the_field(self, value, tmp_path, capsys):
        # an infinite tolerance used to skip every secant step and return an unrefined a*
        path = tmp_path / "cfg.json"
        path.write_text(_single_gaussian_config(f'"tol_a": {value}'))
        assert main(["solve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "tol_a" in captured.err

    def test_integral_float_count_is_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(_single_gaussian_config('"grid_points": 2.5e3, "max_iter": 50.0'))
        _, cfg = load_config(str(path))
        assert (cfg.grid_points, cfg.max_iter) == (2500, 50)
        assert type(cfg.grid_points) is type(cfg.max_iter) is int

    @pytest.mark.parametrize("value", ["1e12", "1e300"])
    def test_oversized_grid_exits_1_naming_the_field(self, value, tmp_path, capsys):
        # 1e12 points used to end in a numpy allocation error, 1e300 in "Maximum allowed size exceeded"
        path = tmp_path / "cfg.json"
        path.write_text(_single_gaussian_config(f'"grid_points": {value}'))
        assert main(["solve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "solver.grid_points" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value, shown", [("1e300", "1e+300"), ("1e12", "1e+12"), ("32", "32")])
    def test_out_of_range_grid_is_one_short_line(self, value, shown, tmp_path, capsys):
        # the value prints to 6 significant digits: 1e300 used to print as a 301-digit integer
        path = tmp_path / "cfg.json"
        path.write_text(_single_gaussian_config(f'"grid_points": {value}'))
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "solver.grid_points" in err and err.endswith(f"got {shown}\n")
        assert err.count("\n") == 1 and len(err) < 200

    def test_largest_grid_is_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(_single_gaussian_config(f'"grid_points": {2**20}'))
        assert load_config(str(path))[1].grid_points == 2**20
        path.write_text(_single_gaussian_config(f'"grid_points": {2**20 + 1}'))
        with pytest.raises(cli.ConfigError, match="solver.grid_points"):
            load_config(str(path))

    def test_unknown_solver_field_exits_1_naming_it(self, tmp_path, capsys):
        # a misspelt tol_a used to be ignored, and the solve ran with the default
        path = tmp_path / "cfg.json"
        path.write_text(_single_gaussian_config('"tol": 1e-3'))
        assert main(["solve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'solver.tol'" in captured.err

    def test_a_level_range_the_level_layer_rejects_exits_1_at_load(self, tmp_path, capsys):
        # a_lo = 1e-12 used to load, and at p0 = 0.999 solve and verify then
        # exited 1 on a level error that named no config field
        path = tmp_path / "cfg.json"
        config = (
            '{"prior": {"p0": 0.999},'
            ' "phi0": {"components": [{"mean": 0, "stddev": 1, "weight": 1}]},'
            ' "phi1": {"components": [{"mean": 1, "stddev": 1, "weight": 1}]},'
            ' "solver": {"a_lo": %s, "a_hi": %s}}'
        )
        path.write_text(config % ("1e-12", "0.999999999999"))
        with pytest.raises(cli.ConfigError, match="solver.a_lo must lie in"):
            load_config(str(path))
        for command in ("solve", "verify"):
            assert main([command, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: config {str(path)!r}: solver.a_lo")
        path.write_text(config % ("2e-9", "0.999999998"))
        assert main(["solve", "--config", str(path)]) == 0


class TestSolveCommand:
    def test_text_output(self, capsys):
        assert main(["solve", "--config", EXAMPLE1]) == 0
        out = capsys.readouterr().out
        assert "a_star" in out and "0.5" in out
        assert "single-threshold optimal: yes" in out

    def test_json_roundtrip_is_bit_exact(self, tmp_path, capsys):
        out_path = tmp_path / "design.json"
        assert main(["solve", "--config", EXAMPLE2, "--format", "json", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())

        spec, cfg = load_config(EXAMPLE2)
        design = solve(spec, cfg)
        assert payload["a_star"] == design.a_star
        assert payload["r_star"] == design.r_star
        assert tuple(payload["thresholds"]) == design.thresholds
        assert payload["mapping"] == design.mapping
        assert payload["channel"]["a11"] == design.channel.a11
        assert payload["channel"]["a22"] == design.channel.a22
        assert payload["mi_bits"] == design.mi_bits
        assert payload["stationarity_residual"] == design.stationarity_residual
        assert payload["iterations"] == design.iterations
        assert payload["single_threshold_predicted"] is False

    def test_json_key_set(self, capsys):
        assert main(["solve", "--config", FIG5, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "a_star", "r_star", "thresholds", "mapping", "channel", "mi_bits",
            "stationarity_residual", "iterations", "single_threshold_predicted",
        }
        assert set(payload["channel"]) == {"a11", "a22"}

    def test_information_free_channel_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(
            '{"prior": {"p0": 0.5},'
            ' "phi0": {"components": [{"mean": 0, "stddev": 1, "weight": 1}]},'
            ' "phi1": {"components": [{"mean": 0, "stddev": 1, "weight": 1}]}}'
        )
        assert main(["solve", "--config", str(path)]) == 2
        assert "no information" in capsys.readouterr().err

    def test_degenerate_channel_message_names_plain_floats(self, tmp_path, capsys):
        path = tmp_path / "separated.json"
        path.write_text(
            '{"prior": {"p0": 0.5},'
            ' "phi0": {"components": [{"mean": -7.5, "stddev": 1, "weight": 1}]},'
            ' "phi1": {"components": [{"mean": 7.5, "stddev": 1, "weight": 1}]}}'
        )
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "degenerate channel at level a=0.49" in err
        assert "np.float64" not in err

    def test_inconsistent_level_set_exits_2(self, capsys, monkeypatch):
        # masses with f + g < 1 mean a wrong level set, not a bad config
        monkeypatch.setattr(
            channel, "_correct_masses", lambda c0, c1, bounds, odd_first: ([0.25] * len(odd_first), [0.5] * len(odd_first))
        )
        assert main(["solve", "--config", EXAMPLE2]) == 2
        err = capsys.readouterr().err
        assert "inconsistent level set at level a=" in err
        assert "f=0.25, g=0.5" in err

    def test_config_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["solve", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_schema_and_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", EXAMPLE1,
            "--a-min", "0.2", "--a-max", "0.8", "--steps", "2", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a,f,g,F,mi_bits,n_roots,degenerate"
        assert len(lines) == 3  # header + exactly 2 data rows

    def test_symmetric_mirror_in_f_and_g(self, tmp_path):
        out = tmp_path / "sweep1.csv"
        main(["sweep", "--config", EXAMPLE1, "--a-min", "0.01", "--a-max", "0.99",
              "--steps", "99", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 99
        by_level = {round(float(r["a"]), 6): r for r in rows}
        for delta in (0.01, 0.1, 0.25, 0.4):
            upper = by_level[round(0.5 + delta, 6)]
            lower = by_level[round(0.5 - delta, 6)]
            assert float(upper["f"]) == pytest.approx(float(lower["g"]), abs=1e-9)

    def test_peak_near_the_solved_level(self, tmp_path):
        out = tmp_path / "sweep2.csv"
        main(["sweep", "--config", EXAMPLE2, "--a-min", "0.01", "--a-max", "0.99",
              "--steps", "99", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        best = max(rows, key=lambda r: float(r["mi_bits"]))
        spec, cfg = load_config(EXAMPLE2)
        assert abs(float(best["a"]) - solve(spec, cfg).a_star) <= 0.011

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--config", FIG5, "--a-min", "0.05", "--a-max", "0.95",
                "--steps", "19", "--out"]
        main(args + [str(out1)])
        main(args + [str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_each_line_is_its_row_at_full_precision(self, tmp_path):
        # the levels from 0.8 up are degenerate on example2: F is NaN and the flag 1
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", EXAMPLE2, "--a-min", "0.05", "--a-max", "0.95",
              "--steps", "19", "--out", str(out)])
        spec, cfg = load_config(EXAMPLE2)
        rows = oracle.sweep_levels(spec, np.linspace(0.05, 0.95, 19), cfg.grid_points)
        expected = [
            ",".join([*(f"{value:.17g}" for value in row[:5]), str(row.n_roots), "1" if row.degenerate else "0"])
            for row in rows
        ]
        assert out.read_text().splitlines()[1:] == expected
        assert any(row.degenerate for row in rows) and not all(row.degenerate for row in rows)

    def test_run_of_grid_points_on_the_level_is_one_root(self, shared_spec, tmp_path):
        config, out = tmp_path / "shared.json", tmp_path / "shared.csv"
        density = lambda model: {"components": [vars(c) for c in model.components]}
        config.write_text(json.dumps({
            "prior": {"p0": shared_spec.prior.p0},
            "phi0": density(shared_spec.density0),
            "phi1": density(shared_spec.density1),
        }))
        assert main(["sweep", "--config", str(config), "--a-min", "0.49", "--a-max", "0.51",
                     "--steps", "3", "--out", str(out)]) == 0
        (row,) = [r for r in csv.DictReader(out.open()) if r["a"] == "0.5"]
        assert row["n_roots"] == "1"
        assert float(row["mi_bits"]) > 0.0

    def test_bad_range_exits_1(self, capsys):
        assert main(["sweep", "--config", EXAMPLE1, "--a-min", "0.9", "--a-max", "0.1",
                     "--steps", "10", "--out", "/tmp/x.csv"]) == 1

    def test_unwritable_path_exits_1(self, capsys):
        assert main(["sweep", "--config", EXAMPLE1, "--a-min", "0.2", "--a-max", "0.8",
                     "--steps", "2", "--out", "/nonexistent-dir/out.csv"]) == 1


class TestVerifyCommand:
    def test_symmetric_channel_passes(self, capsys):
        assert main(["verify", "--config", EXAMPLE1, "--n-thresholds", "1",
                     "--grid-step", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out
        assert "PASS" in out

    def test_unequal_variance_two_thresholds(self, capsys):
        assert main(["verify", "--config", EXAMPLE2, "--n-thresholds", "2",
                     "--grid-step", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "2 thresholds" in out

    def test_solver_vs_single_threshold_oracle(self, capsys):
        # the 2-threshold design strictly beats the best 1-threshold tuple
        assert main(["verify", "--config", EXAMPLE2, "--n-thresholds", "1",
                     "--grid-step", "0.02"]) == 0
        out = capsys.readouterr().out
        gap_line = next(line for line in out.splitlines() if "gap" in line)
        assert float(gap_line.split()[4]) > 1e-3

    def test_second_stationary_level_passes(self, capsys):
        # F has two + to - zeros on this channel; the solver brackets both
        assert main(["verify", "--config", TWO_PEAKS, "--n-thresholds", "1",
                     "--grid-step", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "solver mi_bits        0.386627 (4 thresholds)" in out
        assert "stationarity_slope_sign       PASS" in out
        assert "verification PASSED" in out

    @pytest.mark.parametrize("config", SHIPPED + VERIFY_CHANNELS, ids=lambda p: Path(p).stem)
    def test_correct_designs_pass_at_default_arguments(self, config, capsys):
        assert main(["verify", "--config", config]) == 0
        assert "verification PASSED" in capsys.readouterr().out

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_grid_step_exits_1_naming_the_field(self, step, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", EXAMPLE1, "--n-thresholds", "1",
                         "--grid-step", step]) == 1
        err = capsys.readouterr().err
        assert "grid_step" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("args, field", [
        (["--n-thresholds", "4"], "n_thresholds"),
        (["--grid-step", "inf"], "grid_step"),
        (["--n-thresholds", "2", "--grid-step", "1000"], "fewer points"),
        # grids over the byte budget: 28.0 M tiles at the default step 0.01,
        # 2.2e13 points, and a window over the step that is inf
        (["--n-thresholds", "3"], "grid_step 0.01 is too fine"),
        (["--n-thresholds", "1", "--grid-step", "1e-12"], "grid_step 1e-12 is too fine"),
        (["--n-thresholds", "1", "--grid-step", "5e-324"], "grid_step 5e-324 is too fine"),
    ])
    def test_oracle_arguments_are_checked_before_solving(self, args, field, capsys, monkeypatch):
        def fail(*_):
            raise AssertionError("solve or the grid search ran before the oracle arguments were checked")

        monkeypatch.setattr(cli, "solve", fail)
        monkeypatch.setattr(oracle, "_tile_bounds", fail)
        assert main(["verify", "--config", EXAMPLE1, *args]) == 1
        assert field in capsys.readouterr().err

    def test_failed_verification_exits_3(self, capsys, monkeypatch):
        def inflated(spec, n, step):
            return OracleResult(best_mi_bits=1.0, best_thresholds=(0.0,), n_evaluated=1)

        monkeypatch.setattr(cli, "grid_search", inflated)
        assert main(["verify", "--config", EXAMPLE1, "--n-thresholds", "1",
                     "--grid-step", "0.5"]) == 3
        assert "verification FAILED" in capsys.readouterr().out


class TestClassifyCommand:
    def test_symmetric(self, capsys):
        assert main(["classify", "--config", EXAMPLE1]) == 0
        out = capsys.readouterr().out
        assert "StrictlyDecreasing; single-threshold optimal: yes" in out

    def test_unequal_variance(self, capsys):
        assert main(["classify", "--config", EXAMPLE2]) == 0
        out = capsys.readouterr().out
        assert "NonMonotonic; single-threshold optimal: no" in out

    def test_three_bump(self, capsys):
        assert main(["classify", "--config", FIG5]) == 0
        assert "NonMonotonic" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize("argv, named", [
        (["solve"], "--config"),
        (["verify", "--config", EXAMPLE1, "--n-thresholds", "abc"], "--n-thresholds"),
    ])
    def test_usage_error_exits_1_naming_the_argument(self, argv, named, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: binquant")
        assert named in err.splitlines()[-1]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--steps" in capsys.readouterr().out

    def test_one_parser_serves_a_sequence_of_calls(self, tmp_path, capsys):
        # solve, a usage error, then sweep in one process, each as it runs with a new parser
        calls = [
            ["solve", "--config", EXAMPLE2, "--format", "json"],
            ["sweep", "--config", EXAMPLE1, "--steps", "x", "--out", str(tmp_path / "bad.csv")],
            ["sweep", "--config", FIG5, "--steps", "7", "--out", str(tmp_path / "sweep.csv")],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            csv_out = tmp_path / "sweep.csv"
            return code, out, err, csv_out.read_text() if csv_out.exists() else None

        cli._build_parser.cache_clear()
        shared = [run(argv) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in calls:
            (tmp_path / "sweep.csv").unlink(missing_ok=True)
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, *_ in shared] == [0, 1, 0]
        assert "--steps" in shared[1][2]


def test_the_library_never_hands_find_level_set_a_batch(tmp_path, capsys, monkeypatch):
    # find_level_set answers a batch with a tuple, in which the benchmark's
    # likelihood.roots_per_level would find no roots to count
    ndims = []
    real = channel.find_level_set
    record = lambda spec, level, *rest: ndims.append(np.ndim(level)) or real(spec, level, *rest)
    monkeypatch.setattr(channel, "find_level_set", record)
    sweep = ["sweep", "--out", str(tmp_path / "sweep.csv")]
    commands = [["solve", "--format", "json"], sweep, ["verify"], ["classify"]]
    for config in SHIPPED:
        for command, *rest in commands:
            assert main([command, "--config", config, *rest]) == 0
    capsys.readouterr()
    assert ndims and set(ndims) == {0}

import dataclasses
import gc
import json
from pathlib import Path

import numpy as np
import pytest

from multilevel_control import (
    ChannelControl,
    ConfigError,
    MultilevelControl,
    experiments,
    load_config,
    run_scenario,
)
from multilevel_control.cli import main
from multilevel_control.config import ChecksConfig, parse_config

FAST_OSC = {
    "name": "fast-osc",
    "system": {"A": [[0, 1], [-1, 0]], "B": [[0], [1]], "x0": [-1.0, 0.5], "T": 4.0},
    "kind": "plain",
    "penalization": {
        "profile": "quadratic",
        "partitions": [[-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]],
        "allow_offgrid_minimum": True,
    },
    "grid": {"nodes": 800, "bracket_multiplier": 4},
    "checks": {"terminal_tol": 1e-2, "staircase": True},
    "output_dir": "fast-osc",
    "seed": 0,
}

DIVERGENT = {
    "name": "fast-divergent",
    "system": {"A": [[1.0]], "B": [[1.0]], "x0": [1.5], "T": 1.0},
    "kind": "plain",
    "penalization": {"profile": "quadratic", "partitions": [[-1.0, 0.0, 1.0]]},
    "grid": {"nodes": 800, "bracket_multiplier": 4},
    "checks": {"expect_divergence": True},
    "output_dir": "fast-divergent",
    "seed": 0,
}


OSC_T4 = json.loads((Path(__file__).resolve().parents[1] / "configs" / "osc-t4.json").read_text())


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigParsing:
    def test_missing_field_names_the_field(self):
        raw = json.loads(json.dumps(FAST_OSC))
        del raw["system"]["A"]
        with pytest.raises(ConfigError, match="system.A"):
            parse_config(raw)

    def test_bad_kind_named(self):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["kind"] = "bang-bang"
        with pytest.raises(ConfigError, match="kind"):
            parse_config(raw)

    def test_scaled_needs_beta(self):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["kind"] = "scaled"
        raw["beta"] = 1.0
        with pytest.raises(ConfigError, match="beta"):
            parse_config(raw)

    def test_partition_channel_mismatch(self):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["system"]["B"] = [[1, 0], [1, 1]]
        with pytest.raises(ConfigError, match="partitions"):
            parse_config(raw)

    def test_unsorted_partition(self):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["penalization"]["partitions"] = [[-1, 0.5, 0, 1]]
        with pytest.raises(ConfigError, match=r"partitions\[0\]"):
            parse_config(raw)

    def test_quadratic_chords_of_a_partition(self):
        # the quadratic's values on [-1, 0, 1] are 1, 0, 1: chord slopes -1 and 1
        raw = json.loads(json.dumps(FAST_OSC))
        raw["penalization"] = {"profile": "quadratic", "partitions": [[-1.0, 0.0, 1.0]]}
        pen = parse_config(raw).penalizations()[0]
        assert np.allclose(pen.slopes, [-1.0, 1.0], atol=0)

    def test_checks_fields(self):
        assert [f.name for f in dataclasses.fields(ChecksConfig)] == [
            "terminal_tol",
            "staircase",
            "fenchel",
            "fenchel_gap_rtol",
            "solvable",
            "expect_divergence",
        ]

    def test_unknown_optimizer_field_named(self):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["optimizer"] = {"max_iterations": 100, "step_rule": "polyak"}
        with pytest.raises(ConfigError, match=r"optimizer\.step_rule: unknown field"):
            parse_config(raw)

    def test_invalid_optimizer_value_named(self):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["optimizer"] = {"max_iterations": 0}
        with pytest.raises(ConfigError, match="optimizer: max_iterations"):
            parse_config(raw)

    def test_bracket_multiplier_error_names_grid_field(self):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["grid"]["bracket_multiplier"] = 0
        with pytest.raises(ConfigError, match="grid.bracket_multiplier"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("grid", "nodes", "many"),
            ("grid", "bracket_multiplier", [8]),
            (None, "beta", "big"),
            (None, "seed", {"value": 1}),
            ("checks", "terminal_tol", "tight"),
            ("checks", "fenchel_gap_rtol", "1e-3x"),
            ("optimizer", "max_iterations", "lots"),
            ("system", "T", "four"),
            ("system", "B", [["zero"], [1]]),
        ],
    )
    def test_non_numeric_field_named(self, section, key, value):
        raw = json.loads(json.dumps(FAST_OSC))
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        path = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError, match=rf"^{path}: "):
            parse_config(raw)

    @pytest.mark.parametrize("key", ["terminal_tol", "fenchel_gap_rtol"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    def test_check_tolerance_must_be_finite_and_positive(self, key, value):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["checks"][key] = value
        with pytest.raises(ConfigError, match=rf"^checks\.{key}: must be finite and > 0"):
            parse_config(raw)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="config"):
            load_config(path)


class TestCliExitCodes:
    def test_run_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_OSC)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out" / "fast-osc"
        assert (out / "report.json").exists()
        assert (out / "summary.json").exists()
        assert (out / "control.csv").exists()
        assert (out / "trajectory.csv").exists()
        report = json.loads((out / "report.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        keys = ["checks", "exit_code", "name", "passed", "status", "terminal_norm"]
        assert sorted(summary) == keys and summary == {key: report[key] for key in keys}

    def test_quadratic_kind_writes_no_control_csv(self, tmp_path):
        # the quadratic-cost control is no staircase, so only the trajectory is tabulated
        raw = json.loads(json.dumps(OSC_T4))
        raw["kind"] = "quadratic"
        raw["checks"] = {"terminal_tol": 0.01}
        assert main(["run", str(write_cfg(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out" / "osc-t4"
        assert sorted(f.name for f in out.iterdir()) == ["report.json", "summary.json", "trajectory.csv"]
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "converged" and report["terminal_norm"] <= 0.01

    def test_iteration_cap_exit_2(self, tmp_path):
        raw = json.loads(json.dumps(OSC_T4))
        raw["optimizer"] = {"max_iterations": 1}
        assert main(["run", str(write_cfg(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 2
        out = tmp_path / "out" / "osc-t4"
        assert sorted(f.name for f in out.iterdir()) == ["report.json", "summary.json"]
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "iteration_cap_reached" and report["checks"] == {"converged": False}

    def test_expected_divergence_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, DIVERGENT)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out" / "fast-divergent"
        assert sorted(f.name for f in out.iterdir()) == ["report.json", "summary.json"]

    def test_unexpected_divergence_exit_3(self, tmp_path):
        raw = json.loads(json.dumps(DIVERGENT))
        raw["checks"]["expect_divergence"] = False
        cfg = write_cfg(tmp_path, raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        out = tmp_path / "out" / "fast-divergent"
        assert sorted(f.name for f in out.iterdir()) == ["report.json", "summary.json"]

    def test_expected_divergence_but_converges_exit_2(self, tmp_path):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["checks"]["expect_divergence"] = True
        cfg = write_cfg(tmp_path, raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        out = tmp_path / "out" / "fast-osc"
        assert sorted(f.name for f in out.iterdir()) == ["report.json", "summary.json"]

    def test_failed_terminal_check_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_OSC)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--tol", "1e-12"])
        assert code == 2

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_invalid_tolerance_override_exit_4(self, tmp_path, capsys, tol):
        cfg = write_cfg(tmp_path, FAST_OSC)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--tol", tol]) == 4
        assert "checks.terminal_tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_4(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4

    def test_non_utf8_config_exit_4(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "fast-\xf6sc"}')
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_optimizer_field_exit_4(self, tmp_path):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["optimizer"] = {"exact_refinement": False}
        cfg = write_cfg(tmp_path, raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4

    @pytest.mark.parametrize(
        "section, key",
        [
            ("checks", "expect_divergence"),
            ("checks", "staircase"),
            ("checks", "fenchel"),
            ("checks", "solvable"),
            ("penalization", "allow_offgrid_minimum"),
        ],
    )
    def test_string_boolean_exit_4(self, tmp_path, capsys, section, key):
        # "false" is a true string: only JSON booleans are accepted
        raw = json.loads(json.dumps(FAST_OSC))
        raw[section][key] = "false"
        cfg = write_cfg(tmp_path, raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert f"{section}.{key}: expected true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key", [("checks", "terminal_toll"), ("grid", "node"), ("penalization", "partition")]
    )
    def test_unknown_section_field_exit_4(self, tmp_path, capsys, section, key):
        raw = json.loads(json.dumps(FAST_OSC))
        raw[section][key] = 1e-9
        cfg = write_cfg(tmp_path, raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert f"{section}.{key}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("sed", 5, "sed: unknown field"),
            ("system.x00", [-1.0, 0.5], "system.x00: unknown field"),
            ("seed", 1.7, "seed: expected an integer, got 1.7"),
            ("seed", True, "seed: expected an integer, got True"),
            ("grid.nodes", 4000.9, "grid.nodes: expected an integer"),
            ("grid.nodes", 4000.0, "grid.nodes: expected an integer"),
            ("grid.bracket_multiplier", 2.5, "grid.bracket_multiplier: expected an integer"),
            ("optimizer.max_iterations", True, "optimizer.max_iterations: expected an integer"),
            ("system.T", True, "system.T: expected a number, got True"),
            ("beta", "2", "beta: expected a number"),
            ("system.A", [[0, 1], [-1, False]], "system.A: expected a number, got False"),
            ("system.B", [["0"], [1]], "system.B: expected a number"),
            ("system.x0", ["-1.0", "0.5"], "system.x0: expected a number, got '-1.0'"),
            ("checks.terminal_tol", "1e-2", "checks.terminal_tol: expected a number, got '1e-2'"),
            ("checks.fenchel_gap_rtol", True, "checks.fenchel_gap_rtol: expected a number"),
            (
                "penalization.partitions",
                [[-1.0, -0.6, "-0.2", 0.2, 0.6, 1.0]],
                "penalization.partitions[0]: expected a number",
            ),
            # the stationarity and agreement tolerances are constants, and the
            # quadratic profile is the only one
            ("optimizer.gtol", 1e-6, "optimizer.gtol: unknown field"),
            ("checks.fenchel_agreement_tol", 0.05, "checks.fenchel_agreement_tol: unknown field"),
            ("penalization.values", [[1.0, 0.0, 1.0]], "penalization.values: unknown field"),
            ("penalization.profile", "custom-table", "penalization.profile: unknown profile 'custom-table'"),
            ("name", 5, "name: expected a string"),
            ("output_dir", ["a"], "output_dir: expected a string, got ['a']"),
        ],
    )
    def test_json_type_exit_4(self, tmp_path, capsys, path, value, message):
        # osc-t4 with one field of the wrong JSON type or an unknown field
        raw = json.loads(json.dumps(OSC_T4))
        *sections, key = path.split(".")
        (raw.setdefault(sections[0], {}) if sections else raw)[key] = value
        cfg = write_cfg(tmp_path, raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_agreement_check_reads_the_constant(self, tmp_path, monkeypatch):
        # osc-t4's primal and dual controls agree to about 1.2e-2
        cfg = parse_config(json.loads(json.dumps(OSC_T4)))
        rep = run_scenario(cfg, tmp_path / "a")
        agreement = rep.gap["control_agreement"]
        assert rep.passed and rep.checks["fenchel_agreement"]
        assert 0.0 < agreement <= experiments.FENCHEL_AGREEMENT_TOL
        monkeypatch.setattr(experiments, "FENCHEL_AGREEMENT_TOL", 0.5 * agreement)
        rep = run_scenario(cfg, tmp_path / "b")
        assert rep.gap["control_agreement"] == agreement
        assert not rep.passed and rep.checks["fenchel_agreement"] is False

    def test_fenchel_check_at_a_degenerate_minimizer(self, tmp_path):
        # criterion 5's data: osc-t4 on the four-level ladder, whose dual
        # minimizer is the origin, pinned on the kink at 0; extraction and the
        # check each solve the primal LP (about 1.5e-2 agreement)
        raw = json.loads(json.dumps(OSC_T4))
        raw["penalization"]["partitions"] = [[-1.0, -0.5, 0.0, 0.5, 1.0]]
        rep = run_scenario(parse_config(raw), tmp_path)
        assert rep.passed and "stationary at the origin" in rep.solve["message"]
        assert rep.checks["fenchel_gap"] and rep.checks["fenchel_agreement"]
        assert rep.gap["control_agreement"] <= experiments.FENCHEL_AGREEMENT_TOL

    def test_negative_seed_exit_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_OSC)
        assert main(["converge", str(cfg), "--sizes", "5", "--seed", "-1", "--out", str(tmp_path / "out")]) == 4
        assert "seed: must be >= 0" in capsys.readouterr().err

    def test_non_numeric_config_value_exit_4(self, tmp_path, capsys):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["grid"]["nodes"] = "many"
        cfg = write_cfg(tmp_path, raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert "grid.nodes: " in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", ["0", "1"])
    def test_invalid_grid_override_exit_4(self, tmp_path, capsys, nodes):
        cfg = write_cfg(tmp_path, FAST_OSC)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--grid", nodes]) == 4
        assert "grid.nodes: " in capsys.readouterr().err

    def test_overrides_recorded_in_report(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_OSC)
        out = tmp_path / "out"
        args = ["--out", str(out), "--grid", "2000", "--seed", "7", "--tol", "0.05"]
        assert main(["run", str(cfg), *args]) == 0
        recorded = json.loads((out / "fast-osc" / "report.json").read_text())["config"]
        assert recorded["grid"]["nodes"] == 2000 and recorded["seed"] == 7
        assert recorded["checks"]["terminal_tol"] == 0.05
        assert main(["report", str(out / "fast-osc")]) == 0

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MLCTL_OUTPUT_ROOT", str(tmp_path / "env-root"))
        cfg = write_cfg(tmp_path, FAST_OSC)
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "env-root" / "fast-osc" / "summary.json").exists()


class TestDeterminismAndRoundTrip:
    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_OSC)
        main(["run", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", str(cfg), "--out", str(tmp_path / "b")])
        for fname in ("control.csv", "trajectory.csv"):
            a = (tmp_path / "a" / "fast-osc" / fname).read_bytes()
            b = (tmp_path / "b" / "fast-osc" / fname).read_bytes()
            assert a == b

    def test_report_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_OSC)
        main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert main(["report", str(tmp_path / "out" / "fast-osc")]) == 0

    def test_report_shows_the_solve_counters(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_OSC)
        main(["run", str(cfg), "--out", str(tmp_path / "out")])
        solve = json.loads((tmp_path / "out" / "fast-osc" / "report.json").read_text())["solve"]
        assert solve["newton_steps"] > 0 and solve["line_search_halvings"] >= 0
        assert solve["line_search_trials"] >= solve["newton_steps"]
        assert solve["iterations"] > solve["newton_steps"]
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out" / "fast-osc")]) == 0
        line = (
            f"solve: iterations={solve['iterations']} newton_steps={solve['newton_steps']} "
            f"line_search_halvings={solve['line_search_halvings']} "
            f"line_search_trials={solve['line_search_trials']}"
        )
        assert line in capsys.readouterr().out

    def test_report_missing_dir_exit_4(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing-here")]) == 4


class TestSuiteAndConverge:
    def test_suite_aggregates(self, tmp_path):
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        write_cfg(suite_dir, FAST_OSC, "a.json")
        write_cfg(suite_dir, DIVERGENT, "b.json")
        out = tmp_path / "out"
        assert main(["suite", str(suite_dir), "--out", str(out)]) == 0
        summary = json.loads((out / "suite_summary.json").read_text())
        assert summary["exit_code"] == 0
        assert len(summary["scenarios"]) == 2

    def test_suite_unreadable_entry_exit_4(self, tmp_path, capsys):
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        write_cfg(suite_dir, FAST_OSC, "a.json")
        (suite_dir / "bad.json").mkdir()
        out = tmp_path / "out"
        assert main(["suite", str(suite_dir), "--out", str(out)]) == 4
        assert "bad.json: config error: config: cannot read" in capsys.readouterr().err
        summary = json.loads((out / "suite_summary.json").read_text())
        assert summary["exit_code"] == 4
        assert [s["name"] for s in summary["scenarios"]] == ["fast-osc"]
        assert summary["scenarios"][0]["exit_code"] == 0

    def test_suite_keys_exit_codes_by_file(self, tmp_path, capsys):
        # two scenarios share a name; the failing one must still count
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        failing = json.loads(json.dumps(FAST_OSC))
        failing["checks"]["terminal_tol"] = 1e-12
        failing["output_dir"] = "fast-osc-strict"
        write_cfg(suite_dir, FAST_OSC, "a.json")
        write_cfg(suite_dir, failing, "b.json")
        out = tmp_path / "out"
        assert main(["suite", str(suite_dir), "--out", str(out)]) == 2
        assert "suite: 1/2 scenarios passed" in capsys.readouterr().out
        assert json.loads((out / "suite_summary.json").read_text())["exit_code"] == 2

    def test_suite_repeated_output_dir_exit_4(self, tmp_path, capsys):
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        write_cfg(suite_dir, FAST_OSC, "a.json")
        write_cfg(suite_dir, FAST_OSC, "b.json")
        out = tmp_path / "out"
        assert main(["suite", str(suite_dir), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "b.json: config error: output_dir: 'fast-osc' is also the output_dir of a.json" in err
        summary = json.loads((out / "suite_summary.json").read_text())
        assert [s["exit_code"] for s in summary["scenarios"]] == [0]

    def test_suite_empty_dir_exit_4(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["suite", str(empty), "--out", str(tmp_path / "out")]) == 4

    def test_converge_writes_table(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_OSC)
        out = tmp_path / "out"
        code = main(["converge", str(cfg), "--sizes", "5", "8", "--out", str(out)])
        assert code == 0
        table = (out / "fast-osc-convergence" / "convergence.csv").read_text()
        assert table.splitlines()[0] == "segments,status,l2_distance,levels_used,switches,bound_ok"
        assert len(table.splitlines()) == 3

    def test_converge_deterministic_across_reruns(self, tmp_path):
        from multilevel_control.experiments import convergence_study

        cfg = parse_config(json.loads(json.dumps(FAST_OSC)))
        first = convergence_study(cfg, [5])
        second = convergence_study(cfg, [5])
        assert first == second


def _reference_csv(header, rows):
    """The CSV bytes of per-value ``format(float(x), ".17g")``, text as is."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestCsvBytes:
    """``write_csv`` writes the bytes of the 17-significant-digit reference
    whatever form its rows take."""

    VALUES = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1 / 3, 0.1, -2.5e-300, 1e22, 4.0]

    def test_array_generator_and_scalar_lists_agree(self, tmp_path):
        table = np.column_stack([self.VALUES, self.VALUES[::-1], np.arange(len(self.VALUES)) / 7])
        header = ["t", "x1", "x2"]
        expected = _reference_csv(header, table.tolist())
        forms = {
            "array": table,
            "generator": (row for row in table),  # as traced benchmark passes hand them
            "python-scalars": table.tolist(),
            "numpy-scalars": [list(row) for row in table],
        }
        for form, rows in forms.items():
            path = tmp_path / f"{form}.csv"
            experiments.write_csv(path, header, rows)
            assert path.read_bytes() == expected, form

    def test_an_array_table_sets_off_no_collection(self, tmp_path):
        # a trajectory-sized table: lists kept per row would pass the
        # first generation's threshold a dozen times
        table = np.column_stack([np.linspace(0.0, 4.0, 8001), np.ones((8001, 2)) / 3])
        gc.collect()
        before = [s["collections"] for s in gc.get_stats()]
        experiments.write_csv(tmp_path / "trajectory.csv", ["t", "x1", "x2"], table)
        assert [s["collections"] for s in gc.get_stats()] == before

    def test_int_and_status_columns(self, tmp_path):
        # the shape of convergence.csv
        header = ["segments", "status", "l2_distance", "levels_used", "switches", "bound_ok"]
        rows = [
            [5, "converged", 1 / 3, 4, 3, 1],
            [8, "degenerate", float("nan"), 0, 0, 0],
            [2**60, "iteration_cap_reached", np.float64(-0.0), 7, 12, int(True)],
        ]
        path = tmp_path / "convergence.csv"
        experiments.write_csv(path, header, rows)
        assert path.read_bytes() == _reference_csv(header, rows)
        assert path.read_text().splitlines()[1] == "5,converged,0.33333333333333331,4,3,1"


class TestTwoChannelRunner:
    def test_two_channel_scenario(self, tmp_path):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["name"] = "fast-two-channel"
        raw["system"]["B"] = [[1, 0], [1, 1]]
        raw["penalization"]["partitions"] = [
            [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0],
            [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0],
        ]
        cfg = parse_config(raw)
        rep = run_scenario(cfg, tmp_path / "out")
        assert rep.passed
        assert rep.terminal_norm <= 1e-2
        assert rep.staircase_ok

    def test_staircase_violation_names_its_channel(self, tmp_path, monkeypatch):
        ladder = np.array([-1.6, -0.8, 0.0, 0.8, 1.6])

        def skipping_control(p_T, prob):
            # channel 1 jumps from the lowest level straight to the highest
            return MultilevelControl(
                channels=(
                    ChannelControl(switch_times=[], levels=[0.0], level_set=ladder),
                    ChannelControl(switch_times=[2.0], levels=[-1.6, 1.6], level_set=ladder),
                ),
                scale=1.0,
                horizon=4.0,
            )

        monkeypatch.setattr(experiments, "extract_control", skipping_control)
        raw = json.loads(json.dumps(FAST_OSC))
        raw["system"]["B"] = [[1, 0], [1, 1]]
        raw["penalization"]["partitions"] = [[-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]] * 2
        rep = run_scenario(parse_config(raw), tmp_path / "out")
        assert rep.staircase_ok is False and rep.checks["staircase"] is False
        assert rep.staircase_violation == {"channel": 1, "jump": 0, "from_level": -1.6, "to_level": 1.6}

    def test_zero_state_gives_zero_controls(self, tmp_path):
        raw = json.loads(json.dumps(FAST_OSC))
        raw["name"] = "zero-state"
        raw["system"]["B"] = [[1, 0], [1, 1]]
        raw["system"]["x0"] = [0.0, 0.0]
        raw["penalization"]["partitions"] = [
            [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0],
            [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0],
        ]
        rep = run_scenario(parse_config(raw), tmp_path / "out")
        assert rep.passed and rep.terminal_norm == 0.0
        for ch in rep.control["channels"]:
            assert ch["levels"] == [0.0] and ch["switch_times"] == []


def zero_state_osc(kind, partition):
    raw = json.loads(json.dumps(FAST_OSC))
    raw["name"] = f"zero-state-{kind}"
    raw["system"]["x0"] = [0.0, 0.0]
    raw["kind"] = kind
    if kind == "scaled":
        raw["beta"] = 2.0
    raw["penalization"]["partitions"] = [partition]
    return raw


# ladders without a zero level: 0 is a breakpoint of the penalization
ZERO_BREAKPOINT_PARTITIONS = [[-1.0, -0.5, 0.0, 0.5, 1.0], [-1.0, -0.5, 0.0, 0.5, 0.8, 1.0]]


class TestZeroStateWithoutZeroLevel:
    """At x0 = 0 the minimizer is p = 0, and q = 0 sits on a breakpoint: the
    control is selected between the two levels around it."""

    @pytest.mark.parametrize("partition", ZERO_BREAKPOINT_PARTITIONS, ids=["5-point", "6-point"])
    @pytest.mark.parametrize("kind", ["plain", "scaled"])
    def test_selects_a_ladder_staircase(self, tmp_path, kind, partition):
        rep = run_scenario(parse_config(zero_state_osc(kind, partition)), tmp_path / "out")
        assert rep.passed and rep.staircase_ok
        assert rep.terminal_norm <= 1e-2
        for ch in rep.control["channels"]:
            assert set(ch["levels"]) <= set(ch["level_set"])

    @pytest.mark.parametrize("partition", ZERO_BREAKPOINT_PARTITIONS, ids=["5-point", "6-point"])
    def test_squared_kind_is_degenerate(self, tmp_path, capsys, partition):
        # the squared kind's level scale is the integral term, 0 at p = 0
        cfg = write_cfg(tmp_path, zero_state_osc("squared", partition))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        printed = capsys.readouterr().out
        assert "status=degenerate" in printed and "level scale 0 " in printed
        out = tmp_path / "out" / "fast-osc"
        assert sorted(f.name for f in out.iterdir()) == ["report.json", "summary.json"]

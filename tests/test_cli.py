import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import framefx
from framefx.cli import build_parser, main
from framefx.config import load_frame_config


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_three_trials_and_summary(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "stepped-column", "--segments", "6",
                       "--algo", "de", "--strategy", "fx", "--trials", "3",
                       "--seed", "7", "--pop", "8", "--max-fe", "64",
                       "--out", str(tmp_path))
        assert code == 0
        records = sorted((tmp_path / "stepped-column-6" / "de-fx").glob("*.json"))
        assert [p.name for p in records] == ["7.json", "8.json", "9.json"]
        out = capsys.readouterr().out
        assert "de-fx" in out and "median" in out
        assert (tmp_path / "stepped-column-6" / "summary.csv").exists()

    def test_rerun_reports_resume(self, tmp_path, capsys):
        args = ("run", "--problem", "stepped-column", "--segments", "6",
                "--algo", "de", "--strategy", "none", "--trials", "2",
                "--pop", "8", "--max-fe", "64", "--out", str(tmp_path))
        assert run_cli(*args) == 0
        capsys.readouterr()
        assert run_cli(*args) == 0
        assert "resumed: 0 new trials" in capsys.readouterr().out

    def test_invalid_config_exits_1_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        out_dir = tmp_path / "results"
        code = run_cli("run", "--config", str(bad), "--out", str(out_dir))
        assert code == 1
        assert not out_dir.exists()
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--pop", "3", "population_size must be >= 4"),
        ("--algo", "bogus", "unknown algorithm 'bogus'"),
        ("--strategy", "bogus", "unknown strategy 'bogus'"),
        ("--trials", "0", "trials must be >= 1"),
        ("--jobs", "0", "--jobs must be >= 1"),
        ("--pop", "0", "population_size must be >= 4"),
        ("--max-fe", "0", "max_fe must cover at least the initial population"),
        ("--algo", "de,de", "each algorithm may be listed once"),
        ("--strategy", "none,none", "each strategy may be listed once"),
        ("--segments", "0", "segment_count must be >= 1"),
        ("--tip-load", "-1", "tip_load must be positive"),
        ("--seed", "-1", "rng_seed must be >= 0, got -1"),
    ])
    def test_bad_arguments_exit_1_without_output(self, tmp_path, capsys, option,
                                                 value, message):
        def run(changed):
            cell = {"--algo": "de", "--strategy": "none", "--trials": "1", "--pop": "6",
                    **changed}
            return run_cli("run", "--problem", "stepped-column", "--segments", "5",
                           "--max-fe", "30", "--out", str(tmp_path),
                           *(part for item in cell.items() for part in item))

        assert run({option: value}) == 1
        err = capsys.readouterr().err
        assert message in err and "frame config" not in err
        assert list(tmp_path.iterdir()) == []
        # nothing was written, so the corrected run starts a fresh plan
        assert run({}) == 0

    def test_env_var_default_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRAMEFX_OUT", str(tmp_path / "from-env"))
        code = run_cli("run", "--problem", "stepped-column", "--segments", "5",
                       "--algo", "de", "--strategy", "none", "--trials", "1",
                       "--pop", "8", "--max-fe", "32")
        assert code == 0
        assert (tmp_path / "from-env" / "stepped-column-5").exists()

    def test_no_writes_outside_output_dir(self, tmp_path, monkeypatch, capsys):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out_dir = tmp_path / "elsewhere"
        code = run_cli("run", "--problem", "stepped-column", "--segments", "5",
                       "--algo", "de", "--strategy", "none", "--trials", "1",
                       "--pop", "8", "--max-fe", "32", "--out", str(out_dir))
        assert code == 0
        assert list(workdir.iterdir()) == []

    def test_every_trial_failed_exits_2(self, tmp_path, capsys, monkeypatch):
        from framefx import harness
        from framefx.evaluate import Evaluation

        real_sphere = harness.sphere_problem

        def nan_sphere(dimension=5):
            problem = real_sphere(dimension=dimension)
            problem.evaluate = lambda X: Evaluation(objective=np.full(len(X), np.nan),
                                                    violations=np.zeros((len(X), 0)))
            return problem

        monkeypatch.setattr(harness, "sphere_problem", nan_sphere)
        code = run_cli("run", "--problem", "sphere", "--strategy", "none",
                       "--trials", "2", "--pop", "8", "--max-fe", "16",
                       "--jobs", "1", "--out", str(tmp_path))
        assert code == 2
        assert "every trial failed" in capsys.readouterr().err
        record = json.loads((tmp_path / "sphere-5" / "pso-none" / "0.json").read_text())
        assert record["failed"] and "non-finite" in record["error"]

    def test_fx_without_rules_fails_its_trials_not_the_plan(self, tmp_path, capsys):
        # the sphere declares no functioning rules, so every fx trial fails
        # when its reduced view is built; the other cells still run
        code = run_cli("run", "--problem", "sphere", "--trials", "3", "--pop", "9",
                       "--max-fe", "400", "--jobs", "1", "--out", str(tmp_path))
        assert code == 0
        plan_dir = tmp_path / "sphere-5"
        for algorithm in ("pso", "de"):
            for seed in range(3):
                fx = json.loads((plan_dir / f"{algorithm}-fx" / f"{seed}.json").read_text())
                assert fx["failed"] and "no functioning rules" in fx["error"]
                none = json.loads((plan_dir / f"{algorithm}-none" / f"{seed}.json")
                                  .read_text())
                assert not none["failed"]
        assert (plan_dir / "summary.csv").exists()

    def test_table_counts_completed_and_failed_trials(self, tmp_path, capsys):
        # the sphere declares no functioning rules, so its ifx and fx cells
        # fail every trial; the table says so per cell
        code = run_cli("run", "--problem", "sphere", "--algo", "pso", "--trials", "2",
                       "--pop", "6", "--max-fe", "24", "--jobs", "1",
                       "--out", str(tmp_path))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("cell"))
        assert header.split()[:4] == ["cell", "completed", "failed", "median"]
        rows = {line.split()[0]: line.split()[1:3] for line in lines
                if line.startswith("pso-")}
        assert rows == {"pso-none": ["2", "0"], "pso-ifx": ["0", "2"],
                        "pso-fx": ["0", "2"]}

    def test_seed_in_help(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--help"])
        assert "--seed" in capsys.readouterr().out


class TestInteractions:
    def test_stepped_column_cost_and_artifacts(self, tmp_path, capsys):
        code = run_cli("interactions", "--problem", "stepped-column",
                       "--segments", "10", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "fe_cost=56" in out
        csv_path = tmp_path / "stepped-column-10-interactions" / "interactions.csv"
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 10 and len(rows[0].split(",")) == 10
        assert (csv_path.parent / "interactions.svg").exists()

    def test_separable_function_empty_adjacency(self, tmp_path, capsys):
        code = run_cli("interactions", "--problem", "sphere",
                       "--dimension", "6", "--out", str(tmp_path))
        assert code == 0
        assert "interacting pairs=0" in capsys.readouterr().out

    def test_non_finite_objective_exits_2(self, tmp_path, capsys, monkeypatch):
        from dataclasses import replace

        from framefx import harness

        real_sphere = harness.sphere_problem

        def nan_sphere(dimension=5):
            problem = real_sphere(dimension=dimension)
            # nan at the pair point, where both variables sit at their midpoint 0
            problem.probe = replace(problem.probe, f=lambda x: 0.0 if x.any() else np.nan)
            return problem

        monkeypatch.setattr(harness, "sphere_problem", nan_sphere)
        code = run_cli("interactions", "--problem", "sphere", "--dimension", "2",
                       "--out", str(tmp_path))
        assert code == 2
        assert "objective is nan at point" in capsys.readouterr().err
        assert not (tmp_path / "sphere-2-interactions").exists()

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = run_cli("interactions", "--problem", "sphere",
                       "--out", str(blocker))
        assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("interactions", "--problem", "sphere", "--eta", "-1"), "eta must be finite and >= 0"),
    (("interactions", "--problem", "sphere", "--eta", "nan"), "eta must be finite and >= 0"),
    (("interactions", "--problem", "stepped-column", "--segments", "1"),
     "needs at least two variables"),
    (("validate", "--problem", "sphere", "--dimension", "0"), "dimension must be >= 1"),
    (("validate", "--config", "nosuch"), "config file not found: nosuch"),
    *(((command, "--problem", "sphere", "--config", "frame-8story-1bay"),
       "--problem sphere and --config frame-8story-1bay")
      for command in ("run", "interactions", "validate")),
    (("validate", "--config", "frame-8story-1bay", "--segments", "0", "--dimension", "0"),
     "--segments applies to a stepped-column problem, not a frame one\n"
     "  --dimension applies to a sphere problem, not a frame one"),
    (("validate", "--problem", "sphere", "--segments", "0"),
     "--segments applies to a stepped-column problem, not a sphere one"),
    (("validate", "--problem", "stepped-column", "--dimension", "0"),
     "--dimension applies to a sphere problem, not a stepped-column one"),
], ids=["eta-negative", "eta-nan", "one-segment", "sphere-dimension-0", "missing-config",
        "run-problem-and-config", "interactions-problem-and-config",
        "validate-problem-and-config", "column-and-sphere-options-on-frame",
        "column-option-on-sphere", "sphere-option-on-column"])
def test_bad_problem_arguments_exit_1_without_output(tmp_path, capsys, monkeypatch,
                                                     argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRAMEFX_OUT", raising=False)
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert "configuration error" in err and message in err
    assert "frame config" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


class TestValidate:
    @pytest.mark.parametrize("config,expected", [
        ("frame-8story-1bay", "8 variables, 6 under functioning"),
        ("frame-15story-3bay", "11 variables, 5 under functioning"),
        ("frame-24story-3bay", "20 variables, 8 under functioning"),
    ])
    def test_shipped_configs_report_reduction(self, config, expected, capsys):
        assert run_cli("validate", "--config", config) == 0
        out = capsys.readouterr().out
        assert expected in out
        assert "constraint families" in out
        assert "probe at largest sections" in out

    def test_stepped_column_reduction(self, capsys):
        assert run_cli("validate", "--problem", "stepped-column") == 0
        assert "50 variables, 2 under functioning" in capsys.readouterr().out

    def test_overlapping_functioning_rejected(self, tmp_path, capsys):
        doc = dict(load_frame_config("frame-8story-1bay"))
        doc["functioning"] = [
            {"group_ids": [0, 1, 2], "heights_cm": [0.0, 609.6, 1219.2]},
            {"group_ids": [2, 3], "heights_cm": [0.0, 609.6]},
        ]
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert "disjoint" in err and "variable 2" in err

    def test_story_level_without_nodes_rejected_at_load(self, tmp_path, capsys):
        doc = dict(load_frame_config("frame-8story-1bay"))
        levels = list(doc["story_levels"])
        levels[3] += 1.0  # 1 cm off the floor's nodes
        doc["story_levels"] = levels
        path = tmp_path / "moved-level.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "results"
        assert run_cli("validate", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert f"story_levels[3]: no node at height {levels[3]}" in captured.err
        assert run_cli("run", "--config", str(path), "--trials", "1",
                       "--out", str(out_dir)) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("story_levels", str, "story_levels[0]: expected a number, got '304.8'"),
        ("load_fx", "10", "loads[0].fx: expected a number, got '10'"),
        ("yield_stress", True, "material.yield_stress: expected a positive number"),
    ])
    def test_non_numeric_values_rejected_at_load(self, tmp_path, capsys, field, value,
                                                 message):
        doc = load_frame_config("frame-8story-1bay")
        if field == "story_levels":
            doc["story_levels"] = [value(v) for v in doc["story_levels"]]
        elif field == "load_fx":
            doc["loads"][0]["fx"] = value
        else:
            doc["material"][field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--config", str(path)) == 1
        assert message in capsys.readouterr().err
        out_dir = tmp_path / "results"
        assert run_cli("run", "--config", str(path), "--trials", "1",
                       "--out", str(out_dir)) == 1
        assert not out_dir.exists()

    def test_zero_length_member_rejected_at_load(self, tmp_path, capsys):
        doc = load_frame_config("frame-8story-1bay")
        doc["nodes"].append(list(doc["nodes"][2]))
        doc["members"].append([2, len(doc["nodes"]) - 1, 0])
        path = tmp_path / "zero-length.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert f"members[{len(doc['members']) - 1}]: zero length" in captured.err
        out_dir = tmp_path / "results"
        assert run_cli("run", "--config", str(path), "--trials", "1",
                       "--out", str(out_dir)) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["constraints"].update(families=["stress"]),
         "constraints: stress family requires stress_allowable"),
        (lambda doc: doc["constraints"].update(families=["stress"],
                                               stress_allowable=-1.0),
         "constraints: stress_allowable must be positive"),
        (lambda doc: doc["constraints"].pop("roof_drift_limit_abs"),
         "constraints: lateral_drift family requires"),
        (lambda doc: doc["constraints"].update(
            families=["lateral_drift", "interstory_drift"], interstory_index=-1),
         "constraints: interstory_index_RI must be positive"),
        (lambda doc: doc["constraints"].update(roof_drift_limit_abs=-1),
         "constraints: roof_drift_limit_abs must be positive"),
        (lambda doc: doc.update(functioning=[{"group_ids": [0], "heights_cm": [0.0]}]),
         "functioning[0]: a functioning rule must replace at least two variables"),
        (lambda doc: doc["supports"][0].update(fix=[]),
         "supports[0].fix: expected a non-empty subset"),
        (lambda doc: doc["constraints"].update(interstory_index=None),
         "constraints.interstory_index: expected a number, got None"),
        (lambda doc: doc["functioning"][0].update(group_ids=[0, 1, 2, 9]),
         "functioning[0]: variables [9] outside 0..7"),
        (lambda doc: doc["functioning"].append({"group_ids": [3, 4],
                                                "heights_cm": [0.0, 609.6]}),
         "functioning[1]: variable 3 is already in functioning[0] "
         "(rules must be disjoint)"),
        (lambda doc: doc["groups"][2].update(pool="w14"),
         "functioning[0]: variables [2] do not share the domain of variable 0"),
        (lambda doc: doc.update(supports=[{"node": i, "fix": ["ux", "uy", "rot"]}
                                          for i in range(len(doc["nodes"]))]),
         "supports: no degree of freedom is left free"),
        (lambda doc: "{", "not valid JSON"),
        (lambda doc: "[]", "config root must be a JSON object"),
        (lambda doc: doc["material"].update(density="x"),
         "material.density: expected a number, got 'x'"),
        (lambda doc: doc.update(nodes={}), "nodes: expected a list, got {}"),
        (lambda doc: doc.update(constraints=[]), "constraints: expected an object, got []"),
        (lambda doc: doc.update(name=8), "name: expected a string, got 8"),
        (lambda doc: doc["nodes"][0].pop(), "nodes[0]: expected [x, y]"),
        (lambda doc: doc["groups"].append("beams"), "groups[8]: expected object"),
        (lambda doc: doc["groups"][0].update(pool=3),
         "groups[0].pool: expected pool label string"),
        (lambda doc: doc["groups"][0].update(pool="w99"), "groups[0].pool: unknown pool 'w99'"),
        (lambda doc: doc["groups"][0].update(k_factor="1"),
         "groups[0].k_factor: expected a number, got '1'"),
        (lambda doc: doc["members"][0].pop(),
         "members[0]: expected [node_a, node_b, group_id]"),
        (lambda doc: doc["supports"][0].pop("fix"), "supports[0]: expected {node, fix}"),
        (lambda doc: doc["loads"][0].pop("node"), "loads[0]: expected {node, fx, fy, m}"),
        (lambda doc: doc["constraints"].update(families="lateral_drift"),
         "constraints.families: expected a list of family names"),
        (lambda doc: doc.update(functioning={}), "functioning: expected list"),
        (lambda doc: doc["functioning"].append([4, 5]), "functioning[1]: expected object"),
        (lambda doc: doc["functioning"][0].update(heights_cm="0"),
         "functioning[0].heights_cm: expected a list of numbers"),
        (lambda doc: doc["functioning"][0].update(group_ids=[0, 1, 2, 3.0]),
         "functioning[0].group_ids: expected list of group ids"),
        (lambda doc: doc.update(optimization=[]), "optimization: expected object"),
        (lambda doc: doc.update(optimization={"max_fe": {"none": 0}}),
         "optimization.max_fe: expected positive ints keyed by"),
        (lambda doc: doc.update(second_order=True),
         "second_order: only first-order analysis is available"),
        (lambda doc: doc.update(supports=[]), "supports: at least one support required"),
        (lambda doc: doc["constraints"].update(families=["buckling"]),
         "constraints: unknown constraint families: ['buckling']"),
        (lambda doc: doc["constraints"].update(k_mode="braced"),
         "constraints: unknown k_mode 'braced'"),
        (lambda doc: doc["functioning"][0].update(heights_cm=[0.0, 609.6]),
         "functioning[0]: replaced_variable_ids and heights differ in length"),
        (lambda doc: doc["functioning"][0].update(group_ids=[0, 1, 1, 3]),
         "functioning[0]: replaced_variable_ids contains duplicates"),
    ], ids=["stress-without-limit", "negative-stress-limit", "drift-without-limit",
            "negative-interstory-index", "negative-roof-limit", "one-group-rule",
            "empty-fix", "null-interstory-index", "rule-group-out-of-range",
            "overlapping-rules", "rule-across-two-pools", "every-dof-fixed",
            "invalid-json", "root-not-object", "density-not-number", "nodes-not-list",
            "constraints-not-object", "name-not-string", "node-without-y",
            "group-not-object", "pool-not-string", "unknown-pool", "k-factor-not-number",
            "member-without-group", "support-without-fix", "load-without-node",
            "families-not-list", "functioning-not-list", "rule-not-object",
            "rule-heights-not-numbers", "rule-ids-not-ints", "optimization-not-object",
            "zero-budget", "second-order", "no-supports", "unknown-family",
            "unknown-k-mode", "rule-lengths-differ", "rule-duplicate-ids"])
    def test_config_errors_exit_1_at_load(self, tmp_path, capsys, edit, message):
        doc = load_frame_config("frame-8story-1bay")
        text = edit(doc)  # an edit that returns a string replaces the whole file
        path = tmp_path / "bad.json"
        path.write_text(text if isinstance(text, str) else json.dumps(doc))
        assert run_cli("validate", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert "configuration error" in captured.err and message in captured.err
        out_dir = tmp_path / "results"
        assert run_cli("run", "--config", str(path), "--trials", "1",
                       "--out", str(out_dir)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unstable_supports_diagnosed(self, tmp_path, capsys):
        doc = {
            "name": "wobbly",
            "material": {"elastic_modulus": 20000.0, "yield_stress": 24.0,
                         "density": 0.00785},
            "nodes": [[0.0, 0.0], [0.0, 300.0]],
            "members": [[0, 1, 0]],
            "supports": [{"node": 0, "fix": ["ux", "uy"]}],
            "loads": [{"node": 1, "fx": 1.0}],
            "story_levels": [300.0],
            "groups": [{"label": "c", "role": "column", "pool": "w14"}],
            "constraints": {"families": ["lateral_drift"],
                            "roof_drift_limit_abs": 5.0},
        }
        path = tmp_path / "wobbly.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--config", str(path)) == 1
        assert "singular stiffness" in capsys.readouterr().err


class TestPlot:
    def test_figures_for_plan(self, tmp_path, capsys):
        run_cli("run", "--problem", "stepped-column", "--segments", "6",
                "--algo", "de", "--strategy", "none,fx", "--trials", "2",
                "--pop", "8", "--max-fe", "64", "--out", str(tmp_path))
        capsys.readouterr()
        code = run_cli("plot", str(tmp_path / "stepped-column-6"))
        assert code == 0
        fig_dir = tmp_path / "stepped-column-6" / "figures"
        conv = (fig_dir / "convergence.svg").read_text()
        assert conv.count("<polyline") == 2  # one curve per cell
        assert (fig_dir / "infeasible.svg").exists()

    def test_results_root_with_plans(self, tmp_path, capsys):
        run_cli("run", "--problem", "stepped-column", "--segments", "5",
                "--algo", "pso", "--strategy", "none", "--trials", "1",
                "--pop", "8", "--max-fe", "32", "--out", str(tmp_path))
        assert run_cli("plot", str(tmp_path)) == 0

    def test_cells_without_completed_trials_are_skipped(self, tmp_path, capsys):
        # the sphere declares no functioning rules, so its ifx and fx trials fail
        run_cli("run", "--problem", "sphere", "--trials", "2", "--pop", "6",
                "--max-fe", "24", "--jobs", "1", "--out", str(tmp_path))
        capsys.readouterr()
        assert run_cli("plot", str(tmp_path / "sphere-5")) == 0
        conv = (tmp_path / "sphere-5" / "figures" / "convergence.svg").read_text()
        assert conv.count("<polyline") == 2  # pso-none and de-none

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "frame"}, "frame problem: missing key 'config'"),
        ({"kind": "sphere", "dimensions": 3}, "sphere problem: unknown key 'dimensions'"),
    ])
    def test_hand_edited_problem_spec_exits_1(self, tmp_path, capsys, spec, message):
        run_cli("run", "--problem", "sphere", "--algo", "de", "--strategy", "none",
                "--trials", "1", "--pop", "6", "--max-fe", "24", "--jobs", "1",
                "--out", str(tmp_path))
        manifest_path = tmp_path / "sphere-5" / "plan.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, "problem": spec}))
        capsys.readouterr()
        assert run_cli("plot", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not (tmp_path / "sphere-5" / "figures").exists()

    def test_empty_results_tree(self, tmp_path, capsys):
        assert run_cli("plot", str(tmp_path)) == 1
        assert "no finished plans" in capsys.readouterr().err

    def test_frame_plan_gets_column_profiles(self, tmp_path, capsys):
        run_cli("run", "--config", "frame-8story-1bay", "--algo", "de",
                "--strategy", "fx", "--trials", "1", "--pop", "8",
                "--max-fe", "40", "--out", str(tmp_path))
        capsys.readouterr()
        assert run_cli("plot", str(tmp_path / "frame-8story-1bay")) == 0
        fig_dir = tmp_path / "frame-8story-1bay" / "figures"
        assert (fig_dir / "column_profiles.svg").exists()
        profiles = (fig_dir / "profiles.csv").read_text().splitlines()
        assert profiles[0] == "cell,stack,group_id,height_cm,area_cm2,normalized"
        assert len(profiles) == 5  # one stack of four groups


class TestSections:
    def test_bundled_pool_summary(self, capsys):
        assert run_cli("sections", "--pool", "w-all") == 0
        out = capsys.readouterr().out
        assert "267 shapes" in out

    def test_missing_pool_file(self, capsys):
        assert run_cli("sections", "--pool", "nope.csv") == 1

    @pytest.mark.parametrize("row, message", [
        ("A,nan,100,20,24,3,2,9", "row 3: A: area must be finite and positive"),
        ("A,10,inf,20,24,3,2,9", "row 3: A: moment_of_inertia_x must be finite"),
        ("A,10,100,-20,24,3,2,9", "row 3: A: section_modulus_x must be finite"),
        ("A,10,100,20,24,3,-2,9", "row 3: A: radius_of_gyration_y must be finite"),
    ])
    def test_invalid_properties_exit_1(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("name,area_cm2,ix_cm4,sx_cm3,zx_cm3,rx_cm,ry_cm,depth_cm\n"
                        "B,20,200,40,45,4,3,11\n" + row + "\n")
        assert run_cli("sections", "--pool", str(path)) == 1
        assert message in capsys.readouterr().err


class TestFrameInteractions:
    def test_frame_config_probe(self, tmp_path, capsys):
        code = run_cli("interactions", "--config", "frame-8story-1bay",
                       "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "n=8" in out and "fe_cost=37" in out
        csv_path = tmp_path / "frame-8story-1bay-interactions" / "interactions.csv"
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 8


# run in a fresh interpreter, where sys.modules shows what the commands import
STARTUP_SCRIPT = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    from framefx.cli import main
    from framefx.harness import ExperimentPlan, load_records, summarize

    out = Path(sys.argv[1])
    try:
        main(["--help"])
    except SystemExit as done:
        assert done.code == 0
    assert main(["run", "--problem", "stepped-column", "--trials", "1",
                 "--pop", "6", "--max-fe", "24", "--jobs", "1",
                 "--out", str(out)]) == 0
    assert main(["interactions", "--problem", "stepped-column",
                 "--segments", "6", "--out", str(out)]) == 0
    plan_dir = out / "stepped-column-50"
    plan = ExperimentPlan.from_manifest(json.loads((plan_dir / "plan.json").read_text()))
    summaries = summarize(plan, load_records(plan_dir, plan))
    assert main(["plot", str(plan_dir)]) == 0
    loaded = {"cells": len(summaries), "column": "scipy.linalg" in sys.modules}

    from framefx.fea import analyze
    from framefx.problems import frame_problem

    frame = frame_problem("frame-8story-1bay").frame
    analyze(frame.model, tuple(pool[-1] for pool in frame.pools))
    loaded["frame"] = "scipy.linalg" in sys.modules
    print(json.dumps(loaded))
""")


def test_only_a_frame_solve_imports_scipy_linalg(tmp_path):
    """The column's run, interactions, summary and plot and ``--help`` start
    without scipy.linalg, the largest import; the first frame solve loads it."""
    src = str(Path(framefx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"cells": 6, "column": False, "frame": True}

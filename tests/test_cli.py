import json
import re

import numpy as np

from diffsys.cli import main


def run_cli(args):
    return main(list(args))


class TestDims:
    def test_g2_sl2(self, tmp_path, capsys):
        out = tmp_path / "dims.json"
        assert run_cli(["dims", "--genus", "2", "--algebra", "sl2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["dim_character_variety"] == 6
        assert report["result"]["dim_syst"] == 6

    def test_stdout_default(self, capsys):
        assert run_cli(["dims", "--genus", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["dim_character_variety"] == 12

    def test_bad_genus_exit1(self, capsys):
        assert run_cli(["dims", "--genus", "1"]) == 1
        assert "genus" in capsys.readouterr().err

    def test_unknown_subcommand_exit1(self, capsys):
        assert run_cli(["eigenvalues"]) == 1

    def test_csv_not_available_exit1(self, capsys):
        assert run_cli(["dims", "--genus", "2", "--format", "csv"]) == 1
        assert "csv" in capsys.readouterr().err.lower()

    def test_help_exit0(self, capsys):
        assert run_cli(["--help"]) == 0


class TestNoether:
    def test_g3_hyperelliptic(self, tmp_path):
        out = tmp_path / "noe.json"
        code = run_cli(
            ["noether", "--branch-points", "0,1,2,3,4,5,6", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["result"]["verdict"] == "not_surjective"
        assert report["result"]["rank"] == 5

    def test_quartic(self, tmp_path):
        out = tmp_path / "noe.json"
        assert run_cli(["noether", "--quartic", "klein", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["verdict"] == "surjective"

    def test_requires_exactly_one_curve(self, capsys):
        assert run_cli(["noether"]) == 1
        assert run_cli(["noether", "--quartic", "fermat", "--branch-points", "0,1,2,3,4"]) == 1

    def test_coincident_branch_points_exit1(self, capsys):
        assert run_cli(["noether", "--branch-points", "0,1,2,3,3"]) == 1
        err = capsys.readouterr().err
        assert "branch" in err.lower()

    def test_rational_branch_points(self, tmp_path):
        out = tmp_path / "noe.json"
        code = run_cli(
            ["noether", "--branch-points", "0,1,2,5/2,7/2", "--out", str(out)]
        )
        assert code == 0


class TestLazarsfeld:
    def test_scan_report(self, tmp_path):
        out = tmp_path / "scan.json"
        code = run_cli(
            [
                "lazarsfeld", "--quartic", "fermat", "--trials", "5",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["result"]["successes"] == 5
        assert report["config"]["seed"] == 3

    def test_csv_tally(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(
            [
                "lazarsfeld", "--branch-points", "0,1,2,3,4,5,6", "--trials", "4",
                "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trials,successes,failures"
        assert lines[1] == "4,0,4"

    def test_unwritable_out_exit1_without_temp_file(self, tmp_path, capsys):
        target = tmp_path / "existing-directory"
        target.mkdir()
        code = run_cli(
            [
                "lazarsfeld", "--quartic", "fermat", "--trials", "2",
                "--format", "csv", "--out", str(target),
            ]
        )
        assert code == 1
        assert "cannot write output" in capsys.readouterr().err
        assert list(tmp_path.glob(".diffsys-*.tmp")) == []

    def test_w_dim_validation(self, capsys):
        assert run_cli(
            ["lazarsfeld", "--branch-points", "0,1,2,3,4", "--w-dim", "3"]
        ) == 1

    def test_threads_flag_changes_nothing(self, tmp_path):
        """--threads stays accepted (benchmark scripts pass it) but is a no-op."""
        texts = []
        for threads in ("1", "4"):
            out = tmp_path / f"scan-{threads}.json"
            assert run_cli(
                [
                    "lazarsfeld", "--branch-points", "0,1,2,3,4,5,6", "--trials", "6",
                    "--seed", "2", "--threads", threads, "--out", str(out),
                ]
            ) == 0
            texts.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', out.read_text()))
        assert texts[0] == texts[1]


class TestCriterion:
    def test_sampled_system(self, tmp_path):
        out = tmp_path / "crit.json"
        code = run_cli(
            [
                "criterion", "--branch-points", "0,1,2,3,4", "--seed", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["result"]["criterion"]["verdict"] in ("holds", "fails")
        assert "dyad" in report["result"]

    def test_system_json_roundtrip(self, tmp_path):
        from diffsys.curves import HyperellipticCurve
        from diffsys.systems import builtin_algebra, sample_system, system_to_json

        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
        system = sample_system(curve, builtin_algebra("sl2"), seed=9, coefficient_bound=4)
        spath = tmp_path / "system.json"
        spath.write_text(json.dumps(system_to_json(system)))
        out = tmp_path / "crit.json"
        code = run_cli(
            [
                "criterion", "--branch-points", "0,1,2,3,4",
                "--system-json", str(spath), "--out", str(out),
            ]
        )
        assert code == 0


class TestMonodromyCommand:
    def test_report_structure(self, tmp_path):
        out = tmp_path / "mono.json"
        code = run_cli(
            [
                "monodromy", "--branch-points", "0,1,2,3,4", "--seed", "3",
                "--scale", "1/8", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        rep = report["result"]["representation"]
        assert rep["valid"] is True
        assert len(rep["matrices"]) == 4
        assert len(rep["matrices"][0]) == 4  # four [re, im] entries
        assert len(rep["involution_defects"]) == 5  # one per letter
        assert report["result"]["loops"]["genus"] == 2
        assert report["result"]["irreducibility"]["verdict"] in (
            "probably_irreducible", "common_eigenvector_found",
        )

    def test_system_json_on_another_curve_exit1(self, tmp_path, capsys):
        """The loops come from the flag curve, so a system on other branch
        points is refused rather than transported along the wrong loops."""
        from diffsys.curves import HyperellipticCurve
        from diffsys.systems import builtin_algebra, sample_system, system_to_json

        curve = HyperellipticCurve.from_integers([0, 1, 3, 6, 10])
        system = sample_system(curve, builtin_algebra("sl2"), seed=1, coefficient_bound=2)
        spath = tmp_path / "system.json"
        spath.write_text(json.dumps(system_to_json(system)))
        out = tmp_path / "mono.json"
        code = run_cli(
            [
                "monodromy", "--branch-points", "0,1,2,3,4",
                "--system-json", str(spath), "--out", str(out),
            ]
        )
        assert code == 1
        assert "does not match" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_ode_tol_exit1(self, capsys):
        code = run_cli(
            ["monodromy", "--branch-points", "0,1,2,3,4", "--ode-tol", "0"]
        )
        assert code == 1
        assert "ode-tol" in capsys.readouterr().err

    def test_infeasible_clearance_exit1(self, capsys):
        code = run_cli(
            ["monodromy", "--branch-points", "0,1,2,3,4", "--clearance", "0.6"]
        )
        assert code == 1

    def test_quartic_rejected(self, capsys):
        assert run_cli(["monodromy", "--quartic", "fermat"]) == 1

    def test_numerical_failure_exit2(self, tmp_path, capsys):
        # overflow-scale coefficients make the transport non-finite
        code = run_cli(
            [
                "monodromy", "--branch-points", "0,1,2,3,4", "--seed", "3",
                "--scale", "1000", "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_linalg_failure_exit2(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, but it is a numerical failure
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        code = run_cli(
            [
                "monodromy", "--branch-points", "0,1,2,3,4", "--seed", "3",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_invalid_representation_exit2(self, tmp_path, capsys):
        # this genus-3 system misses the relation gate (residual about 5e-5)
        code = run_cli(
            [
                "monodromy", "--branch-points", "0,1,2,3,4,5,6", "--seed", "0",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "invalid representation" in err

    def test_determinism_modulo_timestamp(self, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert run_cli(
                [
                    "monodromy", "--branch-points", "0,1,2,3,4", "--seed", "7",
                    "--scale", "1/8", "--out", str(out),
                ]
            ) == 0
            text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', out.read_text())
            outs.append(text)
        assert outs[0] == outs[1]


class TestImmersionCommand:
    def test_single_step_csv(self, tmp_path):
        out = tmp_path / "imm.csv"
        code = run_cli(
            [
                "immersion", "--seed", "1", "--fd-steps", "1e-4",
                "--threads", "4", "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,singular_value"
        assert len(lines) == 13  # 12 singular values

    def test_single_step_json(self, tmp_path):
        out = tmp_path / "imm.json"
        code = run_cli(
            [
                "immersion", "--seed", "1", "--fd-steps", "1e-4",
                "--threads", "4", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["result"]["estimated_rank"] == 6
        assert report["config"]["center"]["free_complex_parameters"] == 6
        assert "loops" in report["result"]

    def test_bad_fd_steps_exit1(self, capsys):
        assert run_cli(["immersion", "--fd-steps", "0"]) == 1
        assert run_cli(["immersion", "--fd-steps=-1e-4"]) == 1


class TestConfigFile:
    def test_config_supplies_arguments(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"subcommand": "dims", "genus": 2, "algebra": "sl2"}))
        out = tmp_path / "r.json"
        assert run_cli(["--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["dim_syst"] == 6

    def test_malformed_config_exit1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli(["--config", str(cfg)]) == 1

    def test_config_without_subcommand_exit1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"genus": 2}))
        assert run_cli(["--config", str(cfg)]) == 1

    def test_config_equals_form(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"subcommand": "noether", "branch_points": "0,1,2,3,4,5,6"}))
        out = tmp_path / "r.json"
        assert run_cli([f"--config={cfg}", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["rank"] == 5

    def test_config_list_becomes_comma_form(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"subcommand": "immersion", "seed": 1, "fd_steps": [1e-4, 1e-5, 1e-6]})
        )
        out = tmp_path / "r.json"
        assert run_cli(["--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["fd_steps"] == [1e-4, 1e-5, 1e-6]
        assert report["result"]["ranks"] == [6, 6, 6]

    def test_config_boolean_or_object_exit1(self, tmp_path, capsys):
        for value in (True, {"value": 2}, None):
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({"subcommand": "dims", "genus": 2, "seed": value}))
            assert run_cli(["--config", str(cfg)]) == 1
            assert "seed" in capsys.readouterr().err

import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from diffsys.cli import main


def run_cli(args):
    return main(list(args))


def diagonal_system_json():
    """H (x^0/4 - x^1/8 + x^2/8) dx/y on the genus-3 curve 0..6, as JSON."""
    from diffsys.curves import HyperellipticCurve
    from diffsys.field import ExactMatrix, ExactScalar
    from diffsys.systems import DifferentialSystem, builtin_algebra, system_to_json

    h = [ExactScalar.of(Fraction(n, 8)) for n in (2, -1, 1)]
    coefficients = ExactMatrix.from_rows([h, [ExactScalar.of(0)] * 3, [ExactScalar.of(0)] * 3])
    curve = HyperellipticCurve.from_integers(range(7))
    return system_to_json(DifferentialSystem(curve, builtin_algebra("sl2"), coefficients))


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

    def test_zero_trials_exit1(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        argv = ["lazarsfeld", "--branch-points", "0,1,2,3,4", "--trials", "0", "--out", str(out)]
        assert run_cli(argv) == 1
        assert "--trials must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_w_dim_validation(self, capsys):
        assert run_cli(
            ["lazarsfeld", "--branch-points", "0,1,2,3,4", "--w-dim", "3"]
        ) == 1

    def test_threads_takes_only_one(self, tmp_path, capsys):
        """Every subcommand runs in one thread: --threads 1 writes the report
        of a run without the flag, and any other value exits 1, names the
        flag and writes nothing."""
        argv = ["lazarsfeld", "--branch-points", "0,1,2,3,4,5,6", "--trials", "6", "--seed", "2"]
        texts = []
        for extra in ([], ["--threads", "1"]):
            out = tmp_path / f"scan{len(extra)}.json"
            assert run_cli(argv + extra + ["--out", str(out)]) == 0
            texts.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', out.read_text()))
        assert texts[0] == texts[1]
        for threads in ("4", "0"):
            out = tmp_path / f"scan-threads-{threads}.json"
            assert run_cli(argv + ["--threads", threads, "--out", str(out)]) == 1
            assert "--threads" in capsys.readouterr().err
            assert not out.exists()


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
        assert rep["relation_tol"] == 1e-8
        assert rep["det_tol"] == 1e-10
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

    def test_system_json_with_defaults_runs(self, tmp_path):
        from diffsys.curves import HyperellipticCurve
        from diffsys.systems import builtin_algebra, sample_system, system_to_json

        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
        system = sample_system(curve, builtin_algebra("sl2"), seed=1, coefficient_bound=1)
        spath = tmp_path / "system.json"
        spath.write_text(json.dumps(system_to_json(system)))
        out = tmp_path / "mono.json"
        argv = ["monodromy", "--branch-points", "0,1,2,3,4", "--system-json", str(spath)]
        assert run_cli(argv + ["--ode-tol", "1e-10", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["system"] == system_to_json(system)

    def test_reducible_system_json(self, tmp_path):
        """The diagonal system H (x^0/4 - x^1/8 + x^2/8) dx/y has the common
        eigenvector e_1, and the report names it as the witness."""
        out = tmp_path / "mono.json"
        spath = tmp_path / "system.json"
        spath.write_text(json.dumps(diagonal_system_json()))
        argv = ["monodromy", "--branch-points", "0,1,2,3,4,5,6", "--system-json", str(spath)]
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["irreducibility"] == {
            "verdict": "common_eigenvector_found",
            "witness": [[1.0, 0.0], [0.0, 0.0]],
        }

    def test_zero_ode_tol_exit1(self, capsys):
        """Zero, NaN and infinity are refused before any transport runs."""
        for value in ("0", "nan", "inf"):
            code = run_cli(
                ["monodromy", "--branch-points", "0,1,2,3,4", "--ode-tol", value]
            )
            assert code == 1, value
            assert "--ode-tol must be positive and finite" in capsys.readouterr().err

    def test_ode_tol_below_double_precision_exit1(self, capsys, monkeypatch):
        """A tolerance finer than 10 eps is a configuration error, refused
        before any transport (1e-20 used to run 285 s, then exit 2)."""
        import diffsys.cli

        def no_transport(*args):
            raise AssertionError("transport started")

        monkeypatch.setattr(diffsys.cli, "monodromy", no_transport)
        code = run_cli(["monodromy", "--branch-points", "0,1,2,3,4", "--ode-tol", "1e-20"])
        assert code == 1
        assert "--ode-tol must be at least" in capsys.readouterr().err
        assert run_cli(["immersion", "--fd-steps", "1e-4", "--ode-tol", "1e-16"]) == 1

    def test_infeasible_clearance_exit1(self, capsys):
        code = run_cli(
            ["monodromy", "--branch-points", "0,1,2,3,4", "--clearance", "0.6"]
        )
        assert code == 1
        code = run_cli(
            ["monodromy", "--branch-points", "0,1,2,3,4", "--clearance", "nan"]
        )
        assert code == 1
        assert "--clearance must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "points, clearance",
        [("0,1,2,3,4", "1e-14"), ("0,1,2,3,4", "1e-300"), ("0,1,2,3,1000000", "1e-12")],
    )
    def test_letter_below_double_precision_exit1(self, tmp_path, capsys, points, clearance):
        """Clearances too small for double precision are configuration
        errors naming the letter, with no report and no numpy warning."""
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["monodromy", "--branch-points", points, "--clearance", clearance,
                            "--out", str(out)])
        assert code == 1
        assert "configuration error: clearance infeasible for letter" in capsys.readouterr().err
        assert not out.exists()

    def test_quartic_rejected(self, capsys):
        assert run_cli(["monodromy", "--quartic", "fermat"]) == 1

    def test_blocked_letter_exit1(self, tmp_path, capsys):
        """Branch points 0, 1, 2, 3, 2+i: the stem of letter 4 passes branch
        point 2, a configuration error that names the letter."""
        points = [[re, 1, im, 1] for re, im in ((0, 0), (1, 0), (2, 0), (3, 0), (2, 1))]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"model": "hyperelliptic", "branch_points": points}))
        assert run_cli(["monodromy", "--curve-json", str(path)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: clearance infeasible for letter 4: another branch point" in err
        assert "system" not in err

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
        # the failure explains itself: letter 7's transport has norm about 4.5e3
        norm = re.search(r"largest letter norm (\S+)$", err.strip())
        assert norm and float(norm.group(1)) > 1e3

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

    @pytest.mark.parametrize("branch_points, genus", [("0,1,2,3,4", 2), ("0,1,2,3,4,5,6", 3)])
    def test_traces_payload(self, tmp_path, branch_points, genus):
        """The report's trace words are the documented word list in order, and
        each value is the trace of the product of the report's own matrices."""
        from diffsys.monodromy import standard_word_list

        out = tmp_path / "mono.json"
        argv = ["monodromy", "--branch-points", branch_points, "--seed", "1", "--out", str(out)]
        assert run_cli(argv) == 0
        result = json.loads(out.read_text())["result"]
        traces, rep = result["traces"], result["representation"]
        assert traces["words"] == ["*".join(w) for w in standard_word_list(genus)]
        mats = {
            name: np.array([complex(re, im) for re, im in m]).reshape(2, 2)
            for name, m in zip(rep["loop_names"], rep["matrices"])
        }
        expected = []
        for word in traces["words"]:
            product = np.eye(2, dtype=complex)
            for name in word.split("*"):
                product = product @ mats[name]
            expected.append(np.trace(product))
        values = np.array([complex(re, im) for re, im in traces["values"]])
        assert len(values) == 6 * genus - 3
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)


class TestImmersionCommand:
    def test_single_step_csv(self, tmp_path):
        out = tmp_path / "imm.csv"
        code = run_cli(
            [
                "immersion", "--seed", "1", "--fd-steps", "1e-4",
                "--format", "csv", "--out", str(out),
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
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["result"]["estimated_rank"] == 6
        assert report["config"]["center"]["free_complex_parameters"] == 6
        assert "loops" in report["result"]

    def test_csv_with_several_steps_exit1(self, tmp_path, capsys):
        """The CSV table holds one spectrum, so a ladder cannot be written
        as CSV: exit 1 before any transport, and no file."""
        out = tmp_path / "imm.csv"
        argv = ["immersion", "--fd-steps", "1e-4,1e-5,1e-6", "--format", "csv", "--out", str(out)]
        assert run_cli(argv) == 1
        assert "--format csv takes a single --fd-steps value" in capsys.readouterr().err
        assert not out.exists()

    def test_svd_failure_exit2(self, tmp_path, capsys, monkeypatch):
        """A LinAlgError from the SVD of the Jacobian is a numerical failure."""
        svd, calls = np.linalg.svd, []

        def no_convergence(a, *args, **kwargs):
            if np.shape(a)[-2:] != (2, 2):  # the transport's 2x2 norm stacks still converge
                calls.append(np.shape(a))
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        out = tmp_path / "imm.json"
        assert run_cli(["immersion", "--seed", "1", "--fd-steps", "1e-4", "--out", str(out)]) == 2
        assert calls == [(18, 12)]
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_fd_steps_exit1(self, capsys):
        assert run_cli(["immersion", "--fd-steps", "0"]) == 1
        assert run_cli(["immersion", "--fd-steps=-1e-4"]) == 1
        assert run_cli(["immersion", "--fd-steps", "nan,1e-5,1e-6"]) == 1
        assert "--fd-steps must be positive and finite" in capsys.readouterr().err

    def test_no_regular_center_exit1(self, capsys):
        """--bound 0 samples only the zero system, whose gauge slice is never
        regular: a configuration error, not a traceback."""
        assert run_cli(["immersion", "--bound", "0", "--fd-steps", "1e-5"]) == 1
        assert "cannot build immersion center: failed to sample" in capsys.readouterr().err


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

    def test_dims_and_noether_take_no_seed(self, capsys):
        """Neither draws anything, so a seed would be accepted and ignored."""
        assert run_cli(["dims", "--genus", "2", "--seed", "1"]) == 1
        assert run_cli(["noether", "--quartic", "klein", "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [["--quartic", "klein"], ["--curve-json", "curve.json"]])
    def test_config_and_flag_curve_sources_conflict_exit1(self, tmp_path, capsys, source):
        """A run takes one curve source, also when one comes from the config."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"subcommand": "noether", "branch_points": "0,1,2,3,4,5,6"}))
        out = tmp_path / "r.json"
        assert run_cli(["--config", str(cfg), *source, "--out", str(out)]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_branch_points_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"subcommand": "noether", "branch_points": "0,1,2,3,4,5,6"}))
        texts = []
        for argv in (["--config", str(cfg), "--branch-points", "0,1,2,3,4"],
                     ["noether", "--branch-points", "0,1,2,3,4"]):
            out = tmp_path / f"r{len(texts)}.json"
            assert run_cli(argv + ["--out", str(out)]) == 0
            texts.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', out.read_text()))
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["result"]["verdict"] == "surjective"  # genus 2, not 3

    def test_config_boolean_or_object_exit1(self, tmp_path, capsys):
        for value in (True, {"value": 2}, None):
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({"subcommand": "dims", "genus": 2, "seed": value}))
            assert run_cli(["--config", str(cfg)]) == 1
            assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["lazarsfeld", "--quart", "fermat", "--tri", "2", "--format", "csv"], None),
        (["--config", "run.json"], {"subcommand": "noether", "branch": "0,1,2,3,4"}),
        (["--conf", "run.json", "noether", "--branch-points", "0,1,2,3,4,5,6"],
         {"subcommand": "noether", "branch_points": "0,1,2,3,4"}),
    ],
    ids=["flags", "config-key", "config-flag"],
)
def test_abbreviation_exit1(tmp_path, capsys, argv, config):
    """A flag or config key is taken only under its full name; by prefix
    these would run under names no report echoes, the last with its config
    file ignored."""
    (tmp_path / "run.json").write_text(json.dumps(config))
    argv = [str(tmp_path / a) if a == "run.json" else a for a in argv]
    assert run_cli(argv + ["--out", str(tmp_path / "r.out")]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("subcommand", ["criterion", "monodromy"])
@pytest.mark.parametrize(
    "flag, value", [("--scale", "2"), ("--bound", "9"), ("--algebra", "sl2"), ("--seed", "0")]
)
def test_sampling_flag_with_system_json_exit1(tmp_path, capsys, subcommand, flag, value):
    """A --system-json system is not sampled, so a sampling flag given with
    it, even at its default value, is refused instead of ignored."""
    from diffsys.curves import HyperellipticCurve
    from diffsys.systems import builtin_algebra, sample_system, system_to_json

    curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
    system = sample_system(curve, builtin_algebra("sl2"), seed=1, coefficient_bound=2)
    spath = tmp_path / "system.json"
    spath.write_text(json.dumps(system_to_json(system)))
    out = tmp_path / "report.json"
    code = run_cli(
        [
            subcommand, "--branch-points", "0,1,2,3,4", "--system-json", str(spath),
            flag, value, "--out", str(out),
        ]
    )
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_calls_share_one_parser_but_no_state(tmp_path, capsys):
    """``main`` reuses one parser per process; what one call gave, a later
    call does not see: its seed, or a sampling flag that --system-json
    refuses."""
    from diffsys.cli import build_parser
    from diffsys.curves import HyperellipticCurve
    from diffsys.systems import builtin_algebra, sample_system, system_to_json

    assert build_parser() is build_parser()
    out = tmp_path / "report.json"
    argv = ["criterion", "--branch-points", "0,1,2,3,4", "--out", str(out)]
    seeds = []
    for extra in (["--seed", "3"], []):
        assert run_cli(argv + extra) == 0
        seeds.append(json.loads(out.read_text())["config"]["seed"])
    assert seeds == [3, 0]
    curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
    system = sample_system(curve, builtin_algebra("sl2"), seed=1, coefficient_bound=2)
    spath = tmp_path / "system.json"
    spath.write_text(json.dumps(system_to_json(system)))
    assert run_cli(argv + ["--scale", "1/2"]) == 0
    assert run_cli(argv + ["--system-json", str(spath)]) == 0
    assert "cannot be used with" not in capsys.readouterr().err
    assert json.loads(out.read_text())["config"]["system"] == system_to_json(system)


@pytest.mark.parametrize(
    "argv",
    [
        ["noether"],
        ["lazarsfeld", "--trials", "2", "--w-dim", "2"],
        ["criterion"],
        ["monodromy"],
        ["immersion", "--fd-steps", "1e-4"],
    ],
)
def test_trailing_comma_in_branch_points(tmp_path, argv):
    """Every subcommand skips the empty field after a trailing comma and
    writes the report it writes without the comma."""
    reports = []
    for points in ("0,1,2,3,4,", "0,1,2,3,4"):
        out = tmp_path / "report.json"
        assert run_cli(argv + ["--branch-points", points, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        reports.append((report["config"], report["result"]))
    assert reports[0] == reports[1]


def test_report_is_one_line_of_sorted_keys(tmp_path):
    """A report is one line of JSON with sorted keys, the payload as parsed."""
    out = tmp_path / "dims.json"
    assert run_cli(["dims", "--genus", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def _first_entry(value):
    """The diagonal system's JSON with its first coefficient entry replaced."""
    data = diagonal_system_json()
    data["coefficients"]["entries"][0] = value
    return data


def _curve(first):
    """Genus-2 curve JSON whose first branch point is ``first``."""
    return {"model": "hyperelliptic", "branch_points": [first] + [[k, 1, 0, 1] for k in range(1, 5)]}


@pytest.mark.parametrize(
    "argv, flag, body",
    [
        pytest.param(["noether"], "--curve-json", _curve([1, 0, 0, 1]), id="curve-zero-denominator"),
        pytest.param(["noether"], "--curve-json", {"model": "hyperelliptic", "branch_points": 5},
                     id="curve-branch-points-not-a-list"),
        pytest.param(["noether"], "--curve-json", _curve(["1", 1, 0, 1]), id="curve-string-numerator"),
        pytest.param(["noether"], "--curve-json", [_curve([0, 1, 0, 1])], id="curve-top-level-list"),
        *(
            pytest.param([sub, "--branch-points", "0,1,2,3,4,5,6"], "--system-json",
                         _first_entry(entry),
                         id=f"{sub}-{fault}")
            for sub in ("criterion", "monodromy")
            for fault, entry in (("zero-denominator", [1, 0, 0, 1]), ("string-numerator", ["1", 4, 0, 1]))
        ),
    ],
)
def test_malformed_json_exit1(tmp_path, capsys, argv, flag, body):
    """Malformed data in a --curve-json or --system-json file is a
    configuration error naming the flag, and no report is written."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body))
    out = tmp_path / "report.json"
    assert run_cli(argv + [flag, str(path), "--out", str(out)]) == 1
    assert f"configuration error: {flag} invalid" in capsys.readouterr().err
    assert not out.exists()


_ONE = [1, 1, 0, 1]
# a user quartic, x^4 + 3 x^2 y z + y^4 + z^4, its terms in the normal order
_QUARTIC_TERMS = [[[4, 0, 0], _ONE], [[2, 1, 1], [3, 1, 0, 1]], [[0, 4, 0], _ONE], [[0, 0, 4], _ONE]]


def _quartic(terms, asserted=True, **extra):
    return {"model": "quartic", "coefficients": terms, "smoothness_asserted": asserted, **extra}


@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param(_quartic([[[2, 2, 0], _ONE]], False, family="fermat"),
                     '"smoothness_asserted": true', id="family-label-without-assertion"),
        pytest.param(_quartic([[[5, -1, 0], _ONE]]), "exponent (5, -1, 0)", id="negative-exponent"),
        pytest.param(_quartic([[[4, 0], _ONE]]), "exponent (4, 0)", id="two-exponents"),
        pytest.param(_quartic(_QUARTIC_TERMS, "false"), '"smoothness_asserted": true', id="string-assertion"),
    ],
)
def test_malformed_quartic_exit1(tmp_path, capsys, body, message):
    """A quartic file with a malformed form, or without the JSON boolean
    smoothness assertion, is a configuration error naming its fault, and
    no report is written."""
    path, out = tmp_path / "quartic.json", tmp_path / "report.json"
    path.write_text(json.dumps(body))
    assert run_cli(["noether", "--curve-json", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: --curve-json invalid: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "terms",
    [
        pytest.param(_QUARTIC_TERMS[::-1], id="reversed"),
        pytest.param(_QUARTIC_TERMS[:2] + [[[1, 1, 2], [0, 1, 0, 1]]] + _QUARTIC_TERMS[2:], id="zero-term"),
    ],
)
def test_quartic_copies_match_the_system_curve(tmp_path, terms):
    """A system sampled on a quartic runs on any copy of that quartic's
    form: terms in another order or with a zero term added."""
    from diffsys.curves import curve_from_json
    from diffsys.systems import builtin_algebra, sample_system, system_to_json

    curve = curve_from_json(_quartic(_QUARTIC_TERMS))
    system, copy = tmp_path / "s.json", tmp_path / "q.json"
    system.write_text(json.dumps(system_to_json(sample_system(curve, builtin_algebra("sl2"), 3, 5))))
    copy.write_text(json.dumps(_quartic(terms)))
    out = tmp_path / "report.json"
    argv = ["criterion", "--curve-json", str(copy), "--system-json", str(system), "--out", str(out)]
    assert run_cli(argv) == 0
    assert json.loads(out.read_text())["config"]["curve"]["coefficients"] == _QUARTIC_TERMS


def test_padded_structure_constants_exit1(tmp_path, capsys):
    """A 2-dimensional table whose rows carry a third entry, [e0, e0] = e2,
    is refused by its shape rather than read as far as its planes go."""
    z = [0, 1, 0, 1]
    table = [[[z, z, _ONE], [z, z, z]], [[z, z, z], [z, z, z]]]
    body = {"curve": _curve(z), "algebra": {"name": "padded", "structure_constants": table},
            "coefficients": {"rows": 2, "cols": 2, "entries": [_ONE, z, z, _ONE]}}
    path, out = tmp_path / "s.json", tmp_path / "report.json"
    path.write_text(json.dumps(body))
    argv = ["criterion", "--branch-points", "0,1,2,3,4", "--system-json", str(path), "--out", str(out)]
    assert run_cli(argv) == 1
    assert "--system-json invalid: structure constants: row 0,0 has 3 entries, not 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, body",
    [
        pytest.param(["monodromy", "--branch-points", "0,1,2,3,1e400"], None, id="monodromy-branch-point"),
        pytest.param(["immersion", "--branch-points", "0,1,2,3,1e400"], None, id="immersion-branch-point"),
        pytest.param(["monodromy", "--branch-points", "0,1,2,3,4", "--scale", "1e400"], None,
                     id="monodromy-scale"),
        pytest.param(["monodromy", "--branch-points", "0,1,2,3,4,5,6", "--system-json"],
                     _first_entry([10**400, 1, 0, 1]), id="monodromy-system-json"),
        pytest.param(["monodromy", "--curve-json"], _curve([10**400, 1, 0, 1]), id="monodromy-curve-json"),
    ],
)
def test_beyond_double_range_exit1(tmp_path, capsys, argv, body):
    """A rational beyond double range, which the exact subcommands take, is a
    configuration error where the numeric ones convert it: named, exit 1,
    and no report is written."""
    if body is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(body))
        argv = argv + [str(path)]
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("diffsys: configuration error: ")
    assert err.endswith(" 1" + "0" * 39 + "... lies beyond double range\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["immersion", "--fd-steps", "abc"], "--fd-steps", id="immersion-fd-steps"),
        pytest.param(["immersion", "--fd-steps", "1e-4,1e-5,x"], "--fd-steps", id="immersion-fd-steps-list"),
        pytest.param(["immersion", "--scale", "x"], "--scale", id="immersion-scale"),
        pytest.param(["immersion", "--branch-points", "0,1,2,3,x"], "--branch-points", id="immersion-branch-points"),
        pytest.param(["noether", "--branch-points", "0,1,2,3,x"], "--branch-points", id="noether-branch-points"),
        pytest.param(["lazarsfeld", "--branch-points", "0,1,2,3,1/0"], "--branch-points", id="lazarsfeld-zero-denominator"),
        pytest.param(["criterion", "--branch-points", "0,1,2,3,4", "--scale", "x"], "--scale", id="criterion-scale"),
        pytest.param(["monodromy", "--branch-points", "0,1,2,3,4", "--scale", "1/0"], "--scale", id="monodromy-zero-denominator"),
    ],
)
def test_malformed_value_names_its_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "r.json"
    assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"configuration error: {flag}: cannot parse" in err
    assert "cannot build immersion center" not in err
    assert not out.exists()


def _csv_and_json(tmp_path, argv):
    """The CSV rows and the JSON result of one argv."""
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
    assert run_cli(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert run_cli(argv + ["--out", str(json_out)]) == 0
    rows = [line.split(",") for line in csv_out.read_text().splitlines()]
    return rows, json.loads(json_out.read_text())["result"]


@pytest.mark.parametrize("curve", [["--quartic", "fermat"], ["--branch-points", "0,1,2,3,4,5,6"]])
def test_lazarsfeld_csv_is_read_off_the_result(tmp_path, curve):
    rows, result = _csv_and_json(tmp_path, ["lazarsfeld", *curve, "--trials", "3", "--seed", "5"])
    assert rows[0] == ["trials", "successes", "failures"]
    expected = [result["trials"], result["successes"], len(result["failures"])]
    assert rows[1:] == [[str(v) for v in expected]]


def test_immersion_csv_is_read_off_the_result(tmp_path):
    rows, result = _csv_and_json(tmp_path, ["immersion", "--seed", "1", "--fd-steps", "1e-4"])
    assert rows[0] == ["index", "singular_value"]
    assert len(rows) == len(result["singular_values"]) + 1
    for index, (row, sigma) in enumerate(zip(rows[1:], result["singular_values"]), 1):
        assert row == [str(index), repr(sigma)]

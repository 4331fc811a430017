"""End-to-end tests of the command line, run in process through ``main``."""

import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import povmlab
from helpers import SZ, bloch_state, optimal_B, random_povm
from povmlab import cli, postproc
from povmlab.cli import main
from povmlab.postproc import t1_identify
from povmlab.qubit import DegeneratePovmWarning
from povmlab.serialize import (
    observable_to_json,
    operator_from_json,
    operator_to_json,
    povm_to_json,
    save_json_file,
)
from povmlab.povm import Observable, ZeroElementWarning
from povmlab.standard import (
    projective_povm,
    sic_povm,
    trine_povm,
)


def write(tmp_path, name, obj):
    target = tmp_path / name
    save_json_file(str(target), obj)
    return str(target)


@pytest.fixture
def sic_file(tmp_path):
    return write(tmp_path, "sic.json", povm_to_json(sic_povm()))


@pytest.fixture
def zproj_file(tmp_path):
    return write(tmp_path, "zproj.json", povm_to_json(projective_povm("z")))


@pytest.fixture
def sz_file(tmp_path):
    return write(tmp_path, "sz.json", operator_to_json(SZ))


@pytest.fixture
def sz_obs_file(tmp_path):
    return write(tmp_path, "sz_obs.json", observable_to_json(Observable(SZ)))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


class TestValidate:
    def test_valid_povm(self, capsys, sic_file):
        code, payload = run_json(capsys, ["validate", sic_file])
        assert code == 0
        assert payload["report"]["valid"]
        meta = payload["meta"]
        assert meta["tool"] == "povmlab"
        assert meta["seed"] == 0
        assert set(meta["tolerances"]) == {"eig_zero", "psd_slack", "lin_solve", "cluster"}

    def test_incomplete_povm(self, capsys, tmp_path):
        doc = povm_to_json(sic_povm())
        doc["elements"] = doc["elements"][:3]
        doc.pop("labels")
        path = write(tmp_path, "bad.json", doc)
        code, payload = run_json(capsys, ["validate", path])
        assert code == 2
        assert not payload["report"]["valid"]

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, ["validate", str(tmp_path / "gone.json")])
        assert code == 1
        assert "gone.json" in err and not out

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"dim": 2,,}\n')
        code, out, err = run(capsys, ["validate", str(bad)])
        assert code == 1
        assert "broken.json:1:" in err

    def test_non_utf8_json(self, capsys, tmp_path):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, ["validate", str(bad)])
        assert code == 1 and not out
        assert err.startswith("povmlab: ") and "latin.json" in err and err.count("\n") == 1

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        code, out, err = run(capsys, ["validate", str(deep)])
        assert code == 1 and not out
        assert err.startswith("povmlab: ") and "deep.json" in err and err.count("\n") == 1


class TestSeedResolution:
    def test_default_zero(self, capsys, sic_file, monkeypatch):
        monkeypatch.delenv("POVMLAB_SEED", raising=False)
        _, payload = run_json(capsys, ["validate", sic_file])
        assert payload["meta"]["seed"] == 0

    def test_environment_seed(self, capsys, sic_file, monkeypatch):
        monkeypatch.setenv("POVMLAB_SEED", "17")
        _, payload = run_json(capsys, ["validate", sic_file])
        assert payload["meta"]["seed"] == 17

    def test_config_beats_environment(self, capsys, sic_file, tmp_path, monkeypatch):
        monkeypatch.setenv("POVMLAB_SEED", "17")
        config = tmp_path / "povmlab.cfg"
        config.write_text("# defaults\nseed = 23\n")
        _, payload = run_json(
            capsys, ["validate", "--config", str(config), sic_file]
        )
        assert payload["meta"]["seed"] == 23

    def test_flag_beats_config(self, capsys, sic_file, tmp_path, monkeypatch):
        monkeypatch.setenv("POVMLAB_SEED", "17")
        config = tmp_path / "povmlab.cfg"
        config.write_text("seed = 23\n")
        _, payload = run_json(
            capsys, ["validate", "--config", str(config), "--seed", "99", sic_file]
        )
        assert payload["meta"]["seed"] == 99

    def test_bad_environment_seed(self, capsys, sic_file, monkeypatch):
        monkeypatch.setenv("POVMLAB_SEED", "many")
        code, out, err = run(capsys, ["validate", sic_file])
        assert code == 2
        assert "POVMLAB_SEED" in err

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("volume = 11\n", "unknown key"),
            ("just some words\n", "expected 'key = value'"),
            ("seed = maybe\n", "bad value"),
        ],
    )
    def test_config_errors(self, capsys, sic_file, tmp_path, text, fragment):
        config = tmp_path / "povmlab.cfg"
        config.write_text(text)
        code, out, err = run(capsys, ["validate", "--config", str(config), sic_file])
        assert code == 1
        assert fragment in err

    def test_non_utf8_config(self, capsys, sic_file, tmp_path):
        config = tmp_path / "povmlab.cfg"
        config.write_bytes(b"seed = 1\n\xff\n")
        code, out, err = run(capsys, ["validate", "--config", str(config), sic_file])
        assert code == 1 and not out
        assert err.startswith("povmlab: ") and "povmlab.cfg" in err and err.count("\n") == 1


class TestEveryVerbChecksTheSeed:
    """Every verb checks the seed with the sampler's rule, wherever it came from."""

    @staticmethod
    def argv(verb, sic_file, sz_file):
        return {
            "validate": ["validate", sic_file],
            "min-error": ["min-error", "--povm", sic_file, "--x", sz_file],
            "qubit optimal": ["qubit", "optimal", "--theta", "0.5", "--family", "4"],
        }[verb]

    @staticmethod
    def with_seed(argv, source, seed, tmp_path, monkeypatch):
        monkeypatch.delenv("POVMLAB_SEED", raising=False)
        if source == "flag":
            return argv + ["--seed", str(seed)]
        if source == "environment":
            monkeypatch.setenv("POVMLAB_SEED", str(seed))
            return argv
        config = tmp_path / "povmlab.cfg"
        config.write_text(f"seed = {seed}\n")
        return argv + ["--config", str(config)]

    VERBS = ["validate", "min-error", "qubit optimal"]
    SOURCES = ["flag", "environment", "config"]

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("verb", VERBS)
    def test_out_of_range_seed_is_one_line(self, capsys, sic_file, sz_file, tmp_path,
                                           monkeypatch, verb, source, seed):
        argv = self.with_seed(self.argv(verb, sic_file, sz_file), source, seed,
                              tmp_path, monkeypatch)
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert err == f"povmlab: seed must be an integer in [0, 2**128), got {seed}\n"

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1])
    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("verb", VERBS)
    def test_range_ends_are_recorded(self, capsys, sic_file, sz_file, tmp_path,
                                     monkeypatch, verb, source, seed):
        argv = self.with_seed(self.argv(verb, sic_file, sz_file), source, seed,
                              tmp_path, monkeypatch)
        code, payload = run_json(capsys, argv)
        assert code == 0 and payload["meta"]["seed"] == seed


class TestToleranceFlags:
    def test_flag_applied(self, capsys, sic_file):
        _, payload = run_json(
            capsys, ["validate", "--tol-eig-zero", "1e-6", sic_file]
        )
        assert payload["meta"]["tolerances"]["eig_zero"] == 1e-6

    def test_config_value_and_override(self, capsys, sic_file, tmp_path):
        config = tmp_path / "povmlab.cfg"
        config.write_text("lin_solve = 1e-7\ncluster = 1e-6\n")
        _, payload = run_json(
            capsys,
            ["validate", "--config", str(config), "--tol-cluster", "1e-5", sic_file],
        )
        assert payload["meta"]["tolerances"]["lin_solve"] == 1e-7
        assert payload["meta"]["tolerances"]["cluster"] == 1e-5


class TestDualCommands:
    def test_canonical_dual_of_sic(self, capsys, sic_file):
        code, payload = run_json(capsys, ["dual", "--povm", sic_file])
        assert code == 0
        assert payload["dim"] == 2 and payload["n_elements"] == 4
        assert payload["resolution_residual"] <= 1e-9
        first = np.array(payload["elements"][0]["re"]) + 1j * np.array(
            payload["elements"][0]["im"]
        )
        assert_allclose(first, 6.0 * sic_povm().elements[0] - np.eye(2), atol=1e-12)

    def test_optimal_dual_matches_canonical_for_sic(self, capsys, sic_file):
        _, canonical = run_json(capsys, ["dual", "--povm", sic_file])
        code, optimal = run_json(
            capsys,
            ["optimal-dual", "--povm", sic_file, "--ensemble", "isotropic-six-state"],
        )
        assert code == 0
        assert_allclose(optimal["metric"], np.full(4, 0.25), atol=1e-12)
        for a, b in zip(optimal["elements"], canonical["elements"]):
            assert_allclose(np.array(a["re"]), np.array(b["re"]), atol=1e-8)
            assert_allclose(np.array(a["im"]), np.array(b["im"]), atol=1e-8)

    def test_unknown_preset(self, capsys, sic_file):
        code, out, err = run(
            capsys, ["optimal-dual", "--povm", sic_file, "--ensemble", "no-such"]
        )
        assert code == 1  # treated as a filename that does not exist
        assert "no-such" in err

    def test_ensemble_dimension_mismatch(self, capsys, tmp_path):
        P3 = random_povm(3, 9, np.random.default_rng(0))
        path = write(tmp_path, "qutrit.json", povm_to_json(P3))
        code, out, err = run(
            capsys, ["optimal-dual", "--povm", path, "--ensemble", "six-state"]
        )
        assert code == 2
        assert "dimension" in err


class TestMinError:
    def test_sic_sigma_z(self, capsys, sic_file, sz_file):
        code, payload = run_json(
            capsys,
            ["min-error", "--povm", sic_file, "--ensemble", "isotropic-six-state",
             "--x", sz_file],
        )
        assert code == 0
        assert payload["min_error"] == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_observable_document_accepted(self, capsys, sic_file, sz_obs_file):
        _, payload = run_json(
            capsys, ["min-error", "--povm", sic_file, "--x", sz_obs_file]
        )
        assert payload["min_error"] == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_target_of_another_dimension(self, capsys, sic_file, tmp_path):
        x3 = write(tmp_path, "x3.json", operator_to_json(np.diag([1.0, 0.0, -1.0])))
        code, out, err = run(capsys, ["min-error", "--povm", sic_file, "--x", x3])
        assert code == 2
        assert out == ""
        assert err == "povmlab: target dimension 3 != POVM dimension 2\n"

    def test_non_self_adjoint_target(self, capsys, sic_file, tmp_path):
        # the SIC's optimal coefficients of |0><1| under the six-state ensemble
        # cost sum_i pi_i |c_i|^2 = 3/2, less avg_j |<0|rho_j|1>|^2 = 1/6
        splus = write(tmp_path, "splus.json", operator_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])))
        code, payload = run_json(capsys, ["min-error", "--povm", sic_file, "--x", splus])
        assert code == 0
        assert payload["min_error"] == pytest.approx(4.0 / 3.0, abs=1e-12)


class TestInfocheck:
    def test_infocomplete(self, capsys, sic_file):
        code, payload = run_json(capsys, ["infocheck", "--povm", sic_file])
        assert code == 0
        assert payload["infocomplete"] and payload["span_rank"] == 4

    def test_negative_verdict_still_reports(self, capsys, zproj_file):
        code, payload = run_json(capsys, ["infocheck", "--povm", zproj_file])
        assert code == 3
        assert not payload["infocomplete"]
        assert payload["span_rank"] == 2

    def test_relative_completeness(self, capsys, zproj_file, tmp_path, sz_file):
        eye = write(tmp_path, "eye.json", operator_to_json(np.eye(2)))
        code, payload = run_json(
            capsys, ["infocheck", "--povm", zproj_file, "--r", eye, sz_file]
        )
        assert code == 0
        assert payload["r_infocomplete"] and not payload["infocomplete"]

    def test_operator_of_another_dimension(self, capsys, sic_file, tmp_path):
        x3 = write(tmp_path, "x3.json", operator_to_json(np.diag([1.0, 0.0, -1.0])))
        code, out, err = run(capsys, ["infocheck", "--povm", sic_file, "--r", x3])
        assert code == 2
        assert out == ""
        assert err == "povmlab: operator dimension 3 != POVM dimension 2\n"


class TestPostproc:
    def test_check_feasible(self, capsys, sic_file, tmp_path):
        merged = t1_identify(sic_povm(), 0, 1)
        q = write(tmp_path, "merged.json", povm_to_json(merged))
        code, payload = run_json(
            capsys, ["postproc", "check", "--q", q, "--p", sic_file]
        )
        assert code == 0
        assert payload["verdict"] == "feasible"
        assert payload["markov"]["rows"] == 3 and payload["markov"]["cols"] == 4
        assert payload["witness"] is None
        assert payload["visibility"] == pytest.approx(1.0, abs=1e-12)

    def test_check_infeasible(self, capsys, sic_file, zproj_file):
        code, payload = run_json(
            capsys, ["postproc", "check", "--q", zproj_file, "--p", sic_file]
        )
        assert code == 3
        assert payload["verdict"] == "infeasible"
        assert payload["markov"] is None
        assert payload["residual"] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_check_infeasible_prints_its_witness(self, capsys, sic_file, zproj_file):
        # the printed Y_j, normalized by sum_j Tr[Y_j (Q_j - 1/M)] = 1, bound
        # the printed visibility with no LP: sum_i max_j Tr[Y_j P_i] - sum_j Tr[Y_j]/M
        code, payload = run_json(
            capsys, ["postproc", "check", "--q", zproj_file, "--p", sic_file]
        )
        assert code == 3
        Y = np.array([operator_from_json(y) for y in payload["witness"]])
        P, Q = sic_povm().elements, projective_povm("z").elements
        uniform = np.eye(2) / len(Q)
        assert np.einsum("jab,jba->", Y, Q - uniform).real == pytest.approx(1.0, abs=1e-9)
        bound = (np.einsum("jab,iba->ji", Y, P).real.max(axis=0).sum()
                 - np.einsum("jaa->", Y).real / len(Q))
        assert bound == pytest.approx(payload["visibility"], abs=1e-9)
        assert payload["visibility"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_blur(self, capsys, sic_file, zproj_file):
        code, payload = run_json(capsys, ["postproc", "blur", "--p", sic_file, "--q", zproj_file])
        assert code == 0
        assert payload["epsilon_star"] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert payload["inflation"] == pytest.approx(9.0, abs=1e-8)
        assert_allclose(
            payload["coefficients"], [[2, -1], [0, 1], [0, 1], [0, 1]], atol=1e-8
        )
        assert payload["blurred"]["dim"] == 2

    def test_joint_trivial_certificate(self, capsys, zproj_file, tmp_path):
        # sx's projectors lie off the span of the sz projectors
        sx = write(
            tmp_path, "sx_obs.json",
            observable_to_json(Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        )
        code, payload = run_json(
            capsys, ["postproc", "joint", "--povm", zproj_file, "--x", sx]
        )
        assert code == 3
        assert not payload["feasible"]
        assert payload["certificates"][0]["visibility"] == 0.0
        assert len(payload["joint"]["elements"]) == 2

    def test_joint_multiple_observables(self, capsys, sic_file, tmp_path, sz_obs_file):
        sx = write(
            tmp_path, "sx_obs.json",
            observable_to_json(Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        )
        code, payload = run_json(
            capsys, ["postproc", "joint", "--povm", sic_file, "--x", sx, sz_obs_file]
        )
        assert code == 0
        assert list(payload) == ["meta", "feasible", "certificates", "joint"]
        assert payload["feasible"]
        visibilities = [c["visibility"] for c in payload["certificates"]]
        assert visibilities == pytest.approx([1.0 / (2.0 * np.sqrt(2.0)), 1.0 / 3.0], abs=1e-12)
        assert all(set(c) == {"visibility", "markov"} for c in payload["certificates"])
        assert payload["joint"]["dim"] == 2 and len(payload["joint"]["elements"]) == 4

    @pytest.mark.parametrize("verb", ["check", "joint"])
    def test_solver_failure_exits_4_with_one_line(self, capsys, monkeypatch, tmp_path,
                                                  zproj_file, sz_obs_file, verb):
        # six qubit outcomes leave a null space of two, so each verb solves an LP
        p = write(tmp_path, "six.json",
                  povm_to_json(random_povm(2, 6, np.random.default_rng(8))))
        monkeypatch.setattr(postproc, "linprog",
                            lambda *args, **kwargs: SimpleNamespace(
                                success=False, message="Time limit reached"))
        argv = {"check": ["postproc", "check", "--q", zproj_file, "--p", p],
                "joint": ["postproc", "joint", "--povm", p, "--x", sz_obs_file]}[verb]
        code, out, err = run(capsys, argv)
        assert code == 4
        assert out == ""
        assert err == ("povmlab: least-blur LP not solved: "
                       "HiGHS model status Time limit reached\n")


class TestAbspace:
    @staticmethod
    def _axes(tmp_path):
        SX = np.array([[0.0, 1.0], [1.0, 0.0]])
        SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        a = write(tmp_path, "ax.json", observable_to_json(Observable(SX)))
        b = write(tmp_path, "ay.json", observable_to_json(Observable(SY)))
        return a, b

    def test_build(self, capsys, tmp_path):
        a, b = self._axes(tmp_path)
        code, payload = run_json(capsys, ["abspace", "build", "--A", a, "--B", b])
        assert code == 0
        assert payload["span_dim"] == 3
        assert len(payload["basis"]) == 3

    def test_check_minimal(self, capsys, tmp_path):
        a, b = self._axes(tmp_path)
        trine = write(tmp_path, "trine.json", povm_to_json(trine_povm()))
        code, payload = run_json(
            capsys, ["abspace", "check", "--povm", trine, "--A", a, "--B", b]
        )
        assert code == 0
        assert payload["ab_infocomplete"] and payload["minimal"]

    def test_check_negative(self, capsys, tmp_path, zproj_file):
        a, b = self._axes(tmp_path)
        code, payload = run_json(
            capsys, ["abspace", "check", "--povm", zproj_file, "--A", a, "--B", b]
        )
        assert code == 3
        assert not payload["ab_infocomplete"]

    def test_check_observables_of_another_dimension(self, capsys, tmp_path, sic_file):
        a = write(tmp_path, "a3.json", observable_to_json(Observable(np.diag([1.0, 0.0, -1.0]))))
        b = write(tmp_path, "b3.json", observable_to_json(Observable(np.diag([0.0, 1.0, 2.0]))))
        code, out, err = run(capsys, ["abspace", "check", "--povm", sic_file, "--A", a, "--B", b])
        assert code == 2
        assert out == ""
        assert err == "povmlab: operator dimension 3 != POVM dimension 2\n"


class TestQubit:
    def test_optimal_payload(self, capsys):
        theta = 0.7
        code, payload = run_json(
            capsys, ["qubit", "optimal", "--theta", str(theta), "--family", "4"]
        )
        assert code == 0
        assert len(payload["elements"]) == 4
        summary = payload["summary"]
        assert summary["family"] == 4
        assert summary["B"] == pytest.approx(optimal_B(theta), abs=1e-10)
        assert summary["gap"] == pytest.approx(0.0, abs=1e-9)
        assert summary["total_error"] == pytest.approx(summary["bound"], abs=1e-9)

    @pytest.mark.parametrize("family", ["3", "4"])
    def test_optimal_near_zero_angle(self, capsys, family):
        # 1 - cos^2 cancels at this angle; both families still meet the bound exactly
        code, payload = run_json(
            capsys, ["qubit", "optimal", "--theta", "1e-8", "--family", family])
        assert code == 0
        assert payload["summary"]["total_error"] == pytest.approx(4.0 / 3.0 + 4e-8, abs=1e-15)
        assert payload["summary"]["gap"] == 0.0

    def test_sweep_near_zero_angle(self, capsys):
        code, out, err = run(capsys, ["qubit", "sweep", "--thetas", "1e-8:1e-8:1"])
        assert code == 0 and err == ""
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[4:]]
        assert len(rows) == 2 and all(row[6] == 0.0 for row in rows)

    def test_sweep_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys,
            ["qubit", "sweep", "--thetas", "0.3:1.2:4", "--family", "both",
             "--csv", str(csv_path), "--seed", "3"],
        )
        assert code == 0 and not out
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# povmlab ")
        assert lines[1].startswith("# tolerances: ")
        assert lines[2] == "# seed: 3"
        assert lines[3] == "theta,B,Gamma,Delta,total_error,bound,gap"
        rows = [line.split(",") for line in lines[4:]]
        assert len(rows) == 8  # 4 angles x 2 families
        for row in rows:
            assert len(row) == 7
            values = [float(x) for x in row]
            assert abs(values[6]) < 1e-9  # both families achieve the bound

    def test_sweep_stdout(self, capsys):
        code, out, err = run(capsys, ["qubit", "sweep", "--thetas", "0.5:0.9:2"])
        assert code == 0
        assert "theta,B,Gamma,Delta,total_error,bound,gap" in out

    def test_sweep_skips_degenerate_endpoints(self, capsys):
        # at each endpoint one pair of the four-outcome family has no weight
        with pytest.warns(DegeneratePovmWarning), pytest.warns(ZeroElementWarning):
            code, out, err = run(
                capsys, ["qubit", "sweep", "--thetas", f"0:{np.pi / 2!r}:3"]
            )
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == f"# skipped (degenerate): 0 {np.pi / 2!r}"
        assert lines[4] == "theta,B,Gamma,Delta,total_error,bound,gap"
        rows = [[float(x) for x in line.split(",")] for line in lines[5:]]
        assert len(rows) == 2  # the middle angle, both families
        for row in rows:
            assert row[0] == pytest.approx(np.pi / 4)
            assert abs(row[6]) < 1e-9

    def test_sweep_all_degenerate(self, capsys):
        with pytest.warns(DegeneratePovmWarning), pytest.warns(ZeroElementWarning):
            code, out, err = run(capsys, ["qubit", "sweep", "--thetas", "0:0:1"])
        assert code == 2
        assert out.splitlines()[-2:] == [
            "# skipped (degenerate): 0", "theta,B,Gamma,Delta,total_error,bound,gap"
        ]
        assert err.startswith("povmlab: ") and err.count("\n") == 1

    def test_sweep_warnings_are_one_line_each(self):
        # pytest records warnings raised in process, so only a fresh
        # interpreter shows what reaches stderr
        src = str(Path(povmlab.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "povmlab", "qubit", "sweep", "--thetas", "0:0.5:3"],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert "povmlab: warning: DegeneratePovmWarning: theta at an endpoint" in lines[0]
        assert all(line.startswith("povmlab: warning: ") for line in lines)
        assert ".py:" not in proc.stderr

    def test_sweep_csv_unwritable(self, capsys, tmp_path):
        target = tmp_path / "missing" / "sweep.csv"
        code, out, err = run(
            capsys, ["qubit", "sweep", "--thetas", "0.3:1.2:2", "--csv", str(target)]
        )
        assert code == 1 and out == ""
        assert err == f"povmlab: {target}: No such file or directory\n"

    @pytest.mark.parametrize("spec", ["0.3:1.2", "a:b:3", "0.3:1.2:0"])
    def test_sweep_bad_range(self, capsys, spec):
        code, out, err = run(capsys, ["qubit", "sweep", "--thetas", spec])
        assert code == 2
        assert "--thetas" in err


class TestSimulate:
    @pytest.fixture
    def state_file(self, tmp_path):
        return write(
            tmp_path, "state.json", operator_to_json(bloch_state([0.1, 0.2, 0.3]))
        )

    def test_estimate_is_calibrated(self, capsys, sic_file, state_file, sz_file):
        code, payload = run_json(
            capsys,
            ["simulate", "--povm", sic_file, "--state", state_file, "--x", sz_file,
             "--n", "200000", "--seed", "5"],
        )
        assert code == 0
        assert sum(payload["counts"]) == 200000
        assert abs(payload["z_score"]) < 5.0
        assert payload["variance"] == pytest.approx(
            payload["predicted_error"], rel=0.05
        )

    def test_z_score_is_standard_error_of_the_mean(self, capsys, sic_file, state_file, sz_file):
        n = 1000
        code, payload = run_json(
            capsys,
            ["simulate", "--povm", sic_file, "--state", state_file, "--x", sz_file,
             "--n", str(n), "--seed", "7"],
        )
        assert code == 0
        exact = float(np.real(np.trace(bloch_state([0.1, 0.2, 0.3]) @ SZ)))
        se = np.sqrt(payload["predicted_error"] / n)
        assert payload["z_score"] == pytest.approx((payload["mean"] - exact) / se, rel=1e-12)

    def test_ensemble_dual_option(self, capsys, sic_file, state_file, sz_file):
        code, payload = run_json(
            capsys,
            ["simulate", "--povm", sic_file, "--state", state_file, "--x", sz_file,
             "--n", "1000", "--seed", "2", "--ensemble", "isotropic-six-state"],
        )
        assert code == 0
        assert sum(payload["counts"]) == 1000

    def test_unnormalized_state_rejected(self, capsys, sic_file, sz_file, tmp_path):
        bad = write(tmp_path, "bad_state.json", operator_to_json(np.eye(2)))
        code, out, err = run(
            capsys,
            ["simulate", "--povm", sic_file, "--state", bad, "--x", sz_file,
             "--n", "10"],
        )
        assert code == 2
        assert "trace" in err

    @pytest.mark.parametrize("rho", [[[1.0, 1.0], [0.0, 0.0]], np.diag([1.5, -0.5])],
                             ids=["not-self-adjoint", "not-positive"])
    def test_state_must_be_a_density_matrix(self, capsys, sic_file, sz_file, tmp_path, rho):
        bad = write(tmp_path, "bad_state.json", operator_to_json(np.asarray(rho)))
        code, out, err = run(
            capsys,
            ["simulate", "--povm", sic_file, "--state", bad, "--x", sz_file, "--n", "10"],
        )
        assert code == 2 and not out
        assert "bad_state.json" in err and err.count("\n") == 1

    def test_negative_seed_flag_is_one_line(self, capsys, sic_file, state_file, sz_file):
        code, out, err = run(
            capsys,
            ["simulate", "--povm", sic_file, "--state", state_file, "--x", sz_file,
             "--n", "10", "--seed", "-1"],
        )
        assert code == 2 and not out
        assert err == "povmlab: seed must be an integer in [0, 2**128), got -1\n"

    def test_negative_environment_seed_is_one_line(self, capsys, sic_file, state_file,
                                                   sz_file, monkeypatch):
        monkeypatch.setenv("POVMLAB_SEED", "-5")
        code, out, err = run(
            capsys,
            ["simulate", "--povm", sic_file, "--state", state_file, "--x", sz_file,
             "--n", "10"],
        )
        assert code == 2 and not out
        assert err == "povmlab: seed must be an integer in [0, 2**128), got -5\n"

    def test_seed_zero_runs(self, capsys, sic_file, state_file, sz_file):
        code, payload = run_json(
            capsys,
            ["simulate", "--povm", sic_file, "--state", state_file, "--x", sz_file,
             "--n", "10", "--seed", "0"],
        )
        assert code == 0 and sum(payload["counts"]) == 10

    def test_deterministic_bytes(self, sic_file, state_file, sz_file, tmp_path):
        argv = ["simulate", "--povm", sic_file, "--state", state_file,
                "--x", sz_file, "--n", "5000", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestInputErrorsNameTheirFile:
    """A document that parses but fails validation is named in the one-line message."""

    @staticmethod
    def assert_names(code, out, err, name):
        assert code == 2 and not out
        assert err.startswith(f"povmlab: {name}: ") and err.count("\n") == 1

    def test_validate(self, capsys, tmp_path):
        element = {"dim": 2, "re": [[1, 0], [0, 1]]}  # no "im"
        bad = write(tmp_path, "p.json", {"dim": 2, "elements": [element]})
        code, out, err = run(capsys, ["validate", bad])
        self.assert_names(code, out, err, bad)
        assert "missing key 'im'" in err

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_validate_non_finite_entry(self, capsys, tmp_path, entry):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dim": 2, "elements": [{"dim": 2, "re": [[%s, 0], [0, 1]], '
                       '"im": [[0, 0], [0, 0]]}]}\n' % entry)
        code, out, err = run(capsys, ["validate", str(bad)])
        self.assert_names(code, out, err, str(bad))
        assert "finite" in err

    def test_boolean_entry(self, capsys, sic_file, tmp_path):
        # JSON true would otherwise be read as 1.0
        bad = tmp_path / "x.json"
        bad.write_text('{"dim": 2, "re": [[true, 0], [0, 1]], "im": [[0, 0], [0, 0]]}\n')
        code, out, err = run(capsys, ["min-error", "--povm", sic_file, "--x", str(bad)])
        self.assert_names(code, out, err, str(bad))
        assert err.endswith(": operator.re: expected numbers, got a boolean\n")

    @pytest.mark.parametrize("role, path, value, message", [
        ("x", ["re", 0, 0], 10 ** 400,
         "operator.re: not a numeric matrix (int too large to convert to float)"),
        ("ensemble", ["states", 0, "q"], 10 ** 400,
         "ensemble.states[0].q: number too large for a float"),
        ("x", ["dim"], True,
         "operator.dim: expected a positive integer (JSON integers only), got True"),
        ("povm", ["dim"], True,
         "povm.dim: expected a positive integer (JSON integers only), got True"),
        ("ensemble", ["states", 0, "q"], True,
         "ensemble.states[0].q: expected a number, got True"),
        ("x", ["im", 0, 0], float("inf"), "operator.im: entries must be finite"),
    ], ids=["huge-entry", "huge-weight", "boolean-operator-dim", "boolean-povm-dim",
            "boolean-weight", "infinite-target-entry"])
    def test_number_fields(self, capsys, tmp_path, role, path, value, message):
        # float(10**400) overflows and float(True) is 1.0; each bad field is
        # named together with its file
        docs = {"povm": povm_to_json(sic_povm()), "x": operator_to_json(SZ),
                "ensemble": {"states": [{"q": 1.0, "rho": operator_to_json(np.eye(2) / 2)}]}}
        node = docs[role]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        files = _write_documents(tmp_path, docs)  # json.dumps writes Infinity
        code, out, err = run(capsys, ["min-error", "--povm", files["povm"], "--x", files["x"],
                                      "--ensemble", files["ensemble"]])
        self.assert_names(code, out, err, files[role])
        assert err.endswith(f": {message}\n")

    def test_integer_past_the_digit_limit(self, capsys, sic_file, tmp_path):
        # json.loads cannot read an integer of more than 4300 digits: a parse
        # failure of the named file, not an invalid field
        bad = tmp_path / "x.json"
        bad.write_text('{"dim": 2, "re": [[%s, 0], [0, 1]], "im": [[0, 0], [0, 0]]}\n'
                       % ("1" * 5001))
        code, out, err = run(capsys, ["min-error", "--povm", sic_file, "--x", str(bad)])
        assert code == 1 and not out
        assert err == (f"povmlab: {bad}:0:0: "
                       "Exceeds the limit (4300 digits) for integer string conversion\n")

    def test_validate_boolean_element_dim(self, capsys, tmp_path):
        element = {"dim": True, "re": [[1]], "im": [[0]]}
        bad = write(tmp_path, "p.json", {"dim": 1, "elements": [element]})
        code, out, err = run(capsys, ["validate", bad])
        self.assert_names(code, out, err, bad)
        assert err.endswith(": povm.elements[0].dim: expected a positive integer "
                            "(JSON integers only), got True\n")

    def test_povm(self, capsys, sic_file, tmp_path):
        # completes the identity, but element 1 is not positive semidefinite
        bad = write(tmp_path, "bad_q.json", {
            "dim": 2,
            "elements": [operator_to_json(np.diag([1.5, 0.5])),
                         operator_to_json(np.diag([-0.5, 0.5]))],
        })
        code, out, err = run(capsys, ["postproc", "check", "--q", bad, "--p", sic_file])
        self.assert_names(code, out, err, bad)
        assert "positive semidefinite" in err

    @pytest.mark.parametrize("state, message", [
        ('{"q": NaN, "rho": %s}', "finite"),
        ('{"q": 1.0, "rho": %s}', "positive semidefinite"),
        ('{"q": 1.0}', "missing key 'rho'"),
    ], ids=["nan-weight", "non-psd-state", "missing-rho"])
    def test_ensemble(self, capsys, sic_file, sz_file, tmp_path, state, message):
        rho = json.dumps(operator_to_json(np.diag([1.5, -0.5])))
        bad = tmp_path / "e.json"
        bad.write_text('{"states": [%s]}\n' % (state % rho if "%s" in state else state))
        code, out, err = run(
            capsys, ["min-error", "--povm", sic_file, "--x", sz_file, "--ensemble", str(bad)])
        self.assert_names(code, out, err, str(bad))
        assert message in err

    def test_target(self, capsys, sic_file, tmp_path):
        raising = operator_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))
        bad = write(tmp_path, "x.json", {"operator": raising})
        code, out, err = run(capsys, ["min-error", "--povm", sic_file, "--x", bad])
        self.assert_names(code, out, err, bad)
        assert "self-adjoint" in err

    def test_observable(self, capsys, sic_file, sz_obs_file, tmp_path):
        bad = write(tmp_path, "x.json", operator_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])))
        code, out, err = run(
            capsys, ["postproc", "joint", "--povm", sic_file, "--x", sz_obs_file, bad])
        self.assert_names(code, out, err, bad)
        assert "self-adjoint" in err


class TestOutputFile:
    def test_out_redirects_stdout(self, capsys, sic_file, tmp_path):
        target = tmp_path / "dual.json"
        code, out, err = run(
            capsys, ["dual", "--povm", sic_file, "--out", str(target)]
        )
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["n_elements"] == 4

    def test_out_unwritable(self, capsys, sic_file, tmp_path):
        target = tmp_path / "missing" / "dual.json"
        code, out, err = run(
            capsys, ["dual", "--povm", sic_file, "--out", str(target)]
        )
        assert code == 1 and out == ""
        assert err == f"povmlab: {target}: No such file or directory\n"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "povmlab" in capsys.readouterr().out


def _documents():
    """One qubit and one qutrit document per file role, in the schemas the verbs read."""
    def povm(elements, labels=None):
        doc = {"dim": elements[0]["dim"], "elements": elements}
        return doc if labels is None else {**doc, "labels": labels}

    def ensemble(states):
        return {"states": [{"q": 1.0 / len(states), "rho": operator_to_json(s)}
                           for s in states]}

    # three z projectors blended with the maximally mixed state: the span is not full
    qutrit_povm = [operator_to_json(0.5 * np.diag(np.eye(3)[k]) + np.eye(3) / 6)
                   for k in range(3)]
    qubit = {
        "povm": povm(povm_to_json(sic_povm())["elements"], ["a", "b", "c", "d"]),
        "povm2": povm_to_json(projective_povm("z")),
        "operator": operator_to_json(SZ),
        "observable": observable_to_json(Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        "ensemble": ensemble([bloch_state([0.0, 0.0, 1.0]), bloch_state([0.0, 0.0, -1.0])]),
        "state": operator_to_json(bloch_state([0.1, 0.2, 0.3])),
    }
    qutrit = {
        "povm": povm(qutrit_povm, ["a", "b", "c"]),
        "povm2": povm(qutrit_povm),
        "operator": operator_to_json(np.diag([1.0, 0.0, -1.0])),
        "observable": observable_to_json(Observable(np.diag([1.0, 2.0, 3.0]))),
        "ensemble": ensemble([np.eye(3) / 3]),
        "state": operator_to_json(np.eye(3) / 3),
    }
    return qubit, qutrit


def _write_documents(folder, documents):
    folder.mkdir(exist_ok=True)
    for role, doc in documents.items():
        (folder / f"{role}.json").write_text(json.dumps(doc))
    return {role: str(folder / f"{role}.json") for role in documents}


# every verb that reads files, with the file roles of _documents
VERB_ARGV = {
    "validate": ["validate", "{povm}"],
    "dual": ["dual", "--povm", "{povm}"],
    "optimal-dual": ["optimal-dual", "--povm", "{povm}", "--ensemble", "{ensemble}"],
    "min-error": ["min-error", "--povm", "{povm}", "--ensemble", "{ensemble}",
                  "--x", "{operator}"],
    "infocheck": ["infocheck", "--povm", "{povm}", "--r", "{operator}"],
    "postproc check": ["postproc", "check", "--q", "{povm2}", "--p", "{povm}"],
    "postproc blur": ["postproc", "blur", "--p", "{povm}", "--q", "{povm2}"],
    "postproc joint": ["postproc", "joint", "--povm", "{povm}", "--x", "{observable}"],
    "abspace build": ["abspace", "build", "--A", "{observable}", "--B", "{operator}"],
    "abspace check": ["abspace", "check", "--povm", "{povm}", "--A", "{observable}",
                      "--B", "{operator}"],
    "simulate": ["simulate", "--povm", "{povm}", "--state", "{state}", "--x", "{operator}",
                 "--n", "50", "--ensemble", "{ensemble}"],
}


class TestOneExitPath:
    """``main`` writes every verb's document, with ``meta`` first but in ``qubit optimal``."""

    KEYS = {
        "validate": ["report"],
        "dual": ["dim", "n_elements", "elements", "resolution_residual"],
        "optimal-dual": ["dim", "n_elements", "elements", "resolution_residual", "metric"],
        "min-error": ["min_error"],
        "infocheck": ["dim", "span_rank", "infocomplete", "r_infocomplete"],
        "postproc check": ["feasible", "verdict", "visibility", "residual", "markov",
                           "witness"],
        "postproc blur": ["epsilon_star", "inflation", "markov", "blurred", "coefficients"],
        "postproc joint": ["feasible", "certificates", "joint"],
        "abspace build": ["span_dim", "basis"],
        "abspace check": ["ab_infocomplete", "minimal", "span_dim"],
        "simulate": ["counts", "mean", "variance", "predicted_error", "z_score"],
    }

    @pytest.mark.parametrize("verb", sorted(VERB_ARGV))
    def test_meta_leads(self, capsys, tmp_path, verb):
        names = _write_documents(tmp_path, _documents()[0])
        code, payload = run_json(capsys, [arg.format(**names) for arg in VERB_ARGV[verb]])
        assert code in {0, 3}
        assert list(payload) == ["meta"] + self.KEYS[verb]
        assert list(payload["meta"]) == ["tool", "version", "tolerances", "seed"]

    @pytest.mark.parametrize("family", ["3", "4"])
    def test_qubit_optimal_keeps_meta_after_the_povm(self, capsys, family):
        code, payload = run_json(capsys, ["qubit", "optimal", "--theta", "0.5",
                                          "--family", family, "--seed", "4"])
        assert code == 0
        assert list(payload) == ["dim", "elements", "meta", "summary"]
        assert payload["meta"]["seed"] == 4

    def test_sweep_out_writes_the_file(self, capsys, tmp_path):
        argv = ["qubit", "sweep", "--thetas", "0.3:1.2:2"]
        target = tmp_path / "sweep.csv"
        code, out, err = run(capsys, argv + ["--out", str(target)])
        assert code == 0 and out == "" and err == ""
        _, printed, _ = run(capsys, argv)
        assert target.read_text() == printed

    def test_all_degenerate_sweep_writes_its_file_before_failing(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        with pytest.warns(DegeneratePovmWarning), pytest.warns(ZeroElementWarning):
            code, out, err = run(capsys, ["qubit", "sweep", "--thetas", "0:0:1",
                                          "--csv", str(target)])
        assert code == 2 and out == ""
        assert target.read_text().endswith(
            "# skipped (degenerate): 0\ntheta,B,Gamma,Delta,total_error,bound,gap\n")
        assert err == "povmlab: every angle in --thetas gives a degenerate noise matrix\n"

    def test_sweep_count_is_capped_before_any_angle_is_made(self, capsys, monkeypatch):
        def linspace(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(np, "linspace", linspace)
        count = cli.MAX_SWEEP_ANGLES + 1
        code, out, err = run(capsys, ["qubit", "sweep", "--thetas", f"0.3:1.2:{count}"])
        assert code == 2 and out == ""
        assert err == f"povmlab: --thetas count must be at most {cli.MAX_SWEEP_ANGLES}\n"


class TestArgumentErrors:
    """An unknown, missing or malformed argument ends in one line and the parse code 1."""

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["validate"], ["postproc"], ["qubit", "sweep"],
        ["postproc", "blur", "--p", "p.json"],
        ["qubit", "optimal", "--theta", "abc"],
        ["qubit", "optimal", "--theta", "1", "--family", "5"],
        ["dual", "--povm", "p.json", "--seed", "1.5"],
        ["dual", "--povm", "p.json", "--tol-eig-zero"],
    ])
    def test_one_line(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("povmlab: error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("verb", sorted(VERB_ARGV))
    def test_unknown_option(self, capsys, verb):
        code, out, err = run(capsys, VERB_ARGV[verb] + ["--bogus", "x"])
        assert (code, out) == (1, "")
        assert err.startswith("povmlab: error: unrecognized arguments: --bogus")
        assert err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["postproc", "blur", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: povmlab postproc blur")


_OTHER_DIM = object()  # the node at the same path in the qutrit document
_MUTATIONS = [True, False, 10 ** 400, -(10 ** 400), float("nan"), float("inf"),
              float("-inf"), [], {}, [[]], [[1.0]], [1.0, 0.0], [[1, 0, 0], [0, 1, 0]],
              0, -1, "2", None, _OTHER_DIM]


def _mutate(doc, other, path, value):
    """``doc`` with the node that ``path`` leads to replaced by ``value``.

    Each step of ``path`` picks a key or an index, modulo the node's size; the
    walk stops early at a scalar or an empty node.  ``_OTHER_DIM`` stands for the
    node at the same place in ``other``, the document of another dimension.
    """
    def at(node, key):
        try:
            return node[key]
        except (KeyError, IndexError, TypeError):
            return None

    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[step % len(node)]
        node, other = node[key], at(other, key)
    value = other if value is _OTHER_DIM else value
    if parent is None:
        return value
    parent[key] = value
    return doc


def assert_one_line_at_most(argv):
    """``main`` returns a documented exit code and prints at most one line to stderr."""
    out, err = io.StringIO(), io.StringIO()
    # warnings are recorded, not shown: only the handled message reaches stderr
    with warnings.catch_warnings(record=True), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)  # an unhandled exception fails the property here
    assert code in {0, 1, 2, 3, 4}
    assert err.getvalue().count("\n") <= 1, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(verb=st.sampled_from(sorted(VERB_ARGV)),
       role=st.sampled_from(["povm", "povm2", "operator", "observable", "ensemble", "state"]),
       path=st.lists(st.integers(0, 7), max_size=6),
       value=st.sampled_from(_MUTATIONS))
@example(verb="min-error", role="operator", path=[1, 0, 0], value=10 ** 400)
@example(verb="min-error", role="ensemble", path=[0, 0, 0], value=10 ** 400)
def test_mutated_documents_end_in_one_line(tmp_path_factory, verb, role, path, value):
    qubit, qutrit = _documents()
    files = {**qubit, role: _mutate(qubit[role], qutrit[role], path, value)}
    names = _write_documents(tmp_path_factory.getbasetemp() / "mutated", files)
    assert_one_line_at_most([arg.format(**names) for arg in VERB_ARGV[verb]])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sweep=st.booleans(), family=st.sampled_from(["3", "4"]),
       near_half_pi=st.booleans(), exponent=st.floats(-17.0, 0.0),
       field=st.sampled_from(["eig-zero", "psd-slack", "lin-solve", "cluster"]),
       tol=st.sampled_from([None, "0", "1e-300", "1e-17", "0.5", "1e300", "inf", "nan", "-1"]))
def test_extreme_angles_and_tolerances_end_in_one_line(sweep, family, near_half_pi, exponent,
                                                       field, tol):
    # angles log-spaced within 1e-17 ... 1 of 0 and of pi/2
    theta = repr(np.pi / 2 - 10 ** exponent if near_half_pi else 10 ** exponent)
    argv = (["qubit", "sweep", "--thetas", f"{theta}:{theta}:2", "--family", family] if sweep
            else ["qubit", "optimal", "--theta", theta, "--family", family])
    assert_one_line_at_most(argv + ([] if tol is None else [f"--tol-{field}", tol]))

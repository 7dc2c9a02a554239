import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cescov
from cescov import mc_verify
from cescov.cli import main
from cescov.ces_sampler import CESModel, CompoundGaussianK, RngStream, sample_ces
from cescov.lin_core import load_complex_matrix, parse_complex_matrix, scale_and_sphericity, spiked_covariance
from cescov.mc_verify import verify_target


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_basic_dataset(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sample", "--dist", "gaussian", "--n", "10", "--p", "4",
            "--cov", "identity", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        x = load_complex_matrix(out)
        assert x.shape == (10, 4)
        summary = json.loads(err.strip())
        assert summary["kappa"] == 0.0
        assert summary["family"] == "gaussian"
        assert summary["seed"] == 7

    def test_spiked_preset_sphericity(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sample", "--dist", "gaussian", "--n", "5", "--p", "10",
            "--cov", "spiked:gamma=2", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(err.strip())
        assert abs(summary["gamma"] - 2.0) < 1e-9

    def test_rejects_t4(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sample", "--dist", "t:4", "--n", "10", "--p", "2",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "dof > 4" in err

    @pytest.mark.parametrize("dist", ["t:inf", "k:inf"])
    def test_rejects_infinite_family_parameter(self, capsys, tmp_path, dist):
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys, "sample", "--dist", dist, "--n", "10", "--p", "2",
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert len(err.splitlines()) == 1  # the message only, no numpy warning
        assert "finite" in err and "gaussian" in err

    @pytest.mark.parametrize("dist", ["k:1e-300", "k:0.04"])
    def test_rejects_k_shape_whose_texture_underflows(self, capsys, tmp_path, dist):
        # k:1e-300 wrote rows of zeros: the texture's U^(1/a) underflowed
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys, "sample", "--dist", dist, "--n", "10", "--p", "2",
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert len(err.splitlines()) == 1
        assert "53/1075" in err

    def test_accepts_k_shape_above_the_underflow_bound(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, _ = run(
            capsys, "sample", "--dist", "k:0.05", "--n", "1000", "--p", "2",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert np.all(np.abs(load_complex_matrix(out)).sum(axis=1) > 0)

    def test_rejects_p0(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sample", "--dist", "gaussian", "--n", "3", "--p", "0",
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert "p must be >= 1" in err
        assert not out.exists()

    def test_refused_allocation_exits_2(self, capsys, tmp_path):
        # 10^13 x 2 complex values need 291 TiB: numpy refuses at once, touching no memory
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sample", "--dist", "gaussian", "--n", str(10**13), "--p", "2",
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error: Unable to allocate")
        assert not out.exists()

    def test_rejects_diag_length_mismatch(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sample", "--dist", "gaussian", "--n", "5", "--p", "3",
            "--cov", "diag:1,2", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--cov" in err and "--p" in err

    def test_rejects_non_pd_cov_file(self, capsys, tmp_path):
        from cescov.lin_core import save_complex_matrix

        bad = tmp_path / "bad.csv"
        save_complex_matrix(bad, np.diag([1.0, -1.0]))
        code, _, err = run(
            capsys, "sample", "--dist", "gaussian", "--n", "5", "--p", "2",
            "--cov", str(bad), "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(
                capsys, "sample", "--dist", "k:0.5", "--n", "25", "--p", "3",
                "--seed", "99", "--out", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_mu_file(self, capsys, tmp_path):
        from cescov.lin_core import save_complex_matrix

        mu_path = tmp_path / "mu.csv"
        save_complex_matrix(mu_path, np.array([[10.0 + 0j, 20.0]]))
        out = tmp_path / "x.csv"
        code, _, _ = run(
            capsys, "sample", "--dist", "gaussian", "--n", "200", "--p", "2",
            "--mu", str(mu_path), "--seed", "3", "--out", str(out),
        )
        assert code == 0
        x = load_complex_matrix(out)
        assert abs(x[:, 0].mean() - 10.0) < 0.5
        assert abs(x[:, 1].mean() - 20.0) < 0.5

    def test_ci_mode_requires_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CES_SCM_CI", "1")
        code, _, err = run(
            capsys, "sample", "--dist", "gaussian", "--n", "5", "--p", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--seed" in err

    def test_stdout_csv_parses_back_bit_for_bit(self, capsys, tmp_path):
        argv = ("sample", "--dist", "k:0.5", "--n", "600", "--p", "3", "--cov", "spiked:gamma=2", "--seed", "5")
        code, out, err = run(capsys, *argv, "--out", "-")
        assert code == 0
        path = tmp_path / "x.csv"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", err)
        assert out == path.read_text(encoding="ascii")
        # the summary goes to stderr, the CSV alone to stdout
        assert json.loads(err)["seed"] == 5
        model = CESModel(np.zeros(3), spiked_covariance(3, 2.0), CompoundGaussianK(0.5))
        expected = sample_ces(model, 600, RngStream(5))
        assert parse_complex_matrix(out.splitlines()).tobytes() == expected.tobytes()


class TestSpikedCovariance:
    def test_p10_gamma2_weight(self):
        m = spiked_covariance(10, 2.0)
        eta, gamma = scale_and_sphericity(m)
        assert gamma == pytest.approx(2.0, abs=1e-11)
        # closed form for the spike weight at p=10, gamma=2 is w = 5
        assert np.trace(m).real == 15.0

    def test_gamma_one_is_identity(self):
        np.testing.assert_allclose(spiked_covariance(6, 1.0), np.eye(6), atol=1e-12)

    def test_various_targets(self):
        for p, g in ((4, 2.0), (8, 5.5), (3, 1.2)):
            _, gamma = scale_and_sphericity(spiked_covariance(p, g))
            assert gamma == pytest.approx(g, abs=1e-10)
        # the closed-form spike weight hits gamma to rounding over [1, p)
        for p in range(2, 13):
            for g in np.linspace(1.0, p - 1e-6, 41):
                _, gamma = scale_and_sphericity(spiked_covariance(p, g))
                assert abs(gamma - g) / g <= 1e-14, (p, g, gamma)

    def test_rejects_unreachable(self):
        with pytest.raises(ValueError, match="1 <= gamma < p"):
            spiked_covariance(4, 4.0)


class TestTheory:
    def test_figure_value(self, capsys):
        code, out, _ = run(
            capsys, "theory", "--n", "10", "--p", "10", "--gamma", "2", "--kappa", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["beta_o"] == pytest.approx(0.6428571428571428, abs=1e-12)
        assert payload["schema_version"] == 2
        assert {"eta", "gamma", "kappa", "n", "p", "mse", "nmse", "beta_o",
                "oracle_mse", "tau1", "tau2"} <= set(payload)

    def test_identity_cov_mse(self, capsys):
        code, out, _ = run(
            capsys, "theory", "--n", "10", "--p", "4", "--kappa", "0", "--cov", "identity",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mse"] == pytest.approx(16 / 9, rel=1e-12)

    def test_kappa_below_bound(self, capsys):
        code, _, err = run(
            capsys, "theory", "--n", "10", "--p", "4", "--kappa", "-0.5", "--gamma", "2",
        )
        assert code == 2
        assert "lower bound" in err

    @pytest.mark.parametrize("form", [["--gamma", "2"], ["--cov", "identity"]])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_kappa(self, capsys, form, value):
        got = run(capsys, "theory", "--n", "10", "--p", "4", "--kappa", value, *form)
        assert got == (2, "", f"error: kappa must be finite, got {value}\n")

    def test_conflicting_gamma_and_cov(self, capsys):
        code, _, err = run(
            capsys, "theory", "--n", "10", "--p", "4", "--kappa", "0",
            "--gamma", "2", "--cov", "identity",
        )
        assert code == 2
        assert "--gamma" in err and "--cov" in err

    def test_gamma_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "theory", "--n", "10", "--p", "4", "--kappa", "0", "--gamma", "5",
        )
        assert code == 2
        assert "[1, 4]" in err

    def test_rejects_non_pd_cov_file(self, capsys, tmp_path):
        from cescov.lin_core import save_complex_matrix

        bad = tmp_path / "bad.csv"
        save_complex_matrix(bad, np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        code, out, err = run(
            capsys, "theory", "--n", "10", "--p", "2", "--kappa", "0", "--cov", str(bad),
        )
        assert code == 2
        assert out == ""
        assert "not positive definite" in err

    def test_cov_from_file(self, capsys, tmp_path):
        from cescov.lin_core import save_complex_matrix

        path = tmp_path / "cov.csv"
        save_complex_matrix(path, np.diag([1.0, 3.0]))
        code, out, _ = run(
            capsys, "theory", "--n", "10", "--p", "2", "--kappa", "0", "--cov", str(path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == pytest.approx(2.0)
        assert payload["gamma"] == pytest.approx(1.25)


class TestCurve:
    def test_default_series(self, capsys):
        code, out, _ = run(capsys, "curve")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kappa,beta_o"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 41
        assert rows[0][0] == pytest.approx(-1 / 11, abs=1e-9)
        assert rows[0][1] == pytest.approx(0.66622, abs=1e-5)
        assert rows[-1][0] == pytest.approx(3.0)
        assert rows[-1][1] == pytest.approx(0.29801, abs=1e-5)
        betas = [b for _, b in rows]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_single_step_gives_endpoints(self, capsys):
        code, out, _ = run(capsys, "curve", "--steps", "1")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2

    def test_rejects_kappa_below_bound(self, capsys):
        code, _, err = run(capsys, "curve", "--kappa-min", "-0.2")
        assert code == 2
        # one line naming the offending grid value, not the whole grid
        assert len(err.splitlines()) == 1
        assert "kappa = -0.2 " in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--steps", "0"], "--steps must be >= 1, got 0"),
            (["--kappa-min", "1", "--kappa-max", "0.5"],
             "conflicting flags: --kappa-max 0.5 must exceed --kappa-min 1.0"),
        ],
    )
    def test_rejects_an_empty_grid(self, capsys, argv, message):
        assert run(capsys, "curve", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--kappa-min", "--kappa-max"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_rejects_non_finite_kappa(self, capsys, flag, value):
        code, out, err = run(capsys, "curve", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be finite, got {value}\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "curve", "--steps", "4", "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("kappa,beta_o\n")


class TestMcVerify:
    def test_thm3_small(self, capsys):
        code, out, _ = run(
            capsys, "mc-verify", "--target", "thm3", "--dist", "gaussian",
            "--n", "10", "--p", "2", "--reps", "30000", "--seed", "1",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["report"]["pass"] is True
        assert payload["config"]["target"] == "thm3"
        assert payload["wall_time_s"] > 0

    def test_thm1_weighted_statistic(self, capsys):
        code, out, _ = run(
            capsys, "mc-verify", "--target", "thm1", "--dist", "gaussian",
            "--n", "12", "--p", "2", "--reps", "5000", "--seed", "2",
            "--stat", "wscm:fobi",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["report"]["pass"] is True

    def test_transport_small(self, capsys):
        code, out, _ = run(
            capsys, "mc-verify", "--target", "transport", "--dist", "gaussian",
            "--n", "10", "--p", "2", "--cov", "diag:1,3", "--reps", "30000",
            "--seed", "3",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["report"]["pass"] is True

    def test_sphere_small(self, capsys):
        code, out, _ = run(
            capsys, "mc-verify", "--target", "sphere", "--p", "4",
            "--reps", "50000", "--seed", "4",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["report"]["pass"] is True

    def test_oracle_small(self, capsys):
        code, out, _ = run(
            capsys, "mc-verify", "--target", "oracle", "--dist", "k:0.5",
            "--n", "10", "--p", "4", "--cov", "spiked:gamma=2",
            "--reps", "20000", "--seed", "5",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["report"]["details"]["ratio"] < 1.0

    @pytest.mark.parametrize("dist", ["t:inf", "k:inf"])
    def test_rejects_infinite_family_parameter(self, capsys, dist):
        code, out, err = run(
            capsys, "mc-verify", "--target", "thm3", "--dist", dist,
            "--p", "2", "--reps", "2048", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "finite" in err and "gaussian" in err

    @pytest.mark.parametrize("dist", ["k:1e-300", "k:0.04"])
    def test_rejects_k_shape_whose_texture_underflows(self, capsys, dist):
        # k:1e-300 gave an overflow warning and an infinite deviation
        code, out, err = run(
            capsys, "mc-verify", "--target", "thm3", "--dist", dist,
            "--p", "2", "--reps", "512", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "53/1075" in err

    def test_sphere_rejects_zero_workers(self, capsys):
        code, out, err = run(
            capsys, "mc-verify", "--target", "sphere", "--p", "3",
            "--reps", "10000", "--seed", "1", "--workers", "0",
        )
        assert code == 2
        assert out == ""
        assert "workers must be >= 1, got 0" in err

    def test_rejects_p0(self, capsys):
        code, out, err = run(
            capsys, "mc-verify", "--target", "thm3", "--p", "0", "--reps", "100", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "p must be >= 1" in err

    @pytest.mark.parametrize("target", ["thm1", "thm3"])
    def test_radial_targets_refuse_p1_before_the_first_draw(self, capsys, monkeypatch, target):
        draws, draw = [], mc_verify._draw_chunk
        monkeypatch.setattr(mc_verify, "_draw_chunk", lambda *args: draws.append(args) or draw(*args))
        code, out, err = run(
            capsys, "mc-verify", "--target", target, "--p", "1", "--reps", "2000000", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: radial constants need p >= 2 (no off-diagonal pair)\n"
        assert draws == []

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_oracle_plugin_needs_four_observations(self, capsys, n):
        # the plug-in kurtosis estimate is defined for n >= 4 only
        code, out, err = run(
            capsys, "mc-verify", "--target", "oracle", "--plugin", "--n", n, "--p", "4",
            "--reps", "20000", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert f"need at least 4 observations, got {n}" in err

    def test_fail_exit_code(self, capsys, monkeypatch):
        # a closed-form MSE of zero fails every run, whatever the seed,
        # exercising the 0/1/2 exit-code contract's failure branch
        monkeypatch.setattr(mc_verify, "mse_scm", lambda cov, n, kappa: (0.0, 0.0))
        code, out, _ = run(
            capsys, "mc-verify", "--target", "thm3", "--dist", "gaussian",
            "--n", "10", "--p", "2", "--reps", "3000", "--seed", "1", "--json",
        )
        assert code == 1
        assert json.loads(out)["report"]["pass"] is False

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_singular_weighted_statistic(self, capsys, workers):
        # n = p makes every replication's SCM singular
        code, out, err = run(
            capsys, "mc-verify", "--target", "thm1", "--stat", "wscm:fobi",
            "--n", "2", "--p", "2", "--seed", "1", "--workers", workers,
        )
        assert code == 2
        assert out == ""
        assert "sample covariance is singular" in err

    def test_workers_do_not_change_report(self, capsys):
        reports = {}
        for workers in ("1", "4"):
            code, out, _ = run(
                capsys, "mc-verify", "--target", "thm3", "--dist", "gaussian",
                "--n", "10", "--p", "2", "--reps", "10000", "--seed", "6",
                "--workers", workers, "--json",
            )
            assert code == 0
            reports[workers] = json.loads(out)["report"]
        assert reports["1"] == reports["4"]

    def test_bad_family(self, capsys):
        code, _, err = run(
            capsys, "mc-verify", "--target", "thm3", "--dist", "t:3",
            "--reps", "100", "--seed", "1",
        )
        assert code == 2

    @pytest.mark.parametrize("dist", ["t:6", "t:8"])
    def test_refuses_infinite_eighth_moment(self, capsys, dist):
        code, out, err = run(
            capsys, "mc-verify", "--target", "thm3", "--dist", dist,
            "--reps", "100", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert f"{dist} has infinite E[r^8]" in err

    def test_sphere_ignores_family(self, capsys):
        code, out, _ = run(
            capsys, "mc-verify", "--target", "sphere", "--dist", "t:6", "--p", "2",
            "--reps", "10000", "--seed", "1", "--json",
        )
        assert code == 0
        assert json.loads(out)["report"]["pass"] is True

    def test_ci_mode_requires_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CES_SCM_CI", "1")
        code, _, err = run(
            capsys, "mc-verify", "--target", "sphere", "--p", "2", "--reps", "10000",
        )
        assert code == 2
        assert "--seed" in err

    def test_draws_a_seed_without_ci_mode(self, capsys, monkeypatch):
        monkeypatch.delenv("CES_SCM_CI", raising=False)
        argv = ("mc-verify", "--target", "sphere", "--p", "2", "--reps", "10000", "--json")
        code, out, err = run(capsys, *argv)
        payload = json.loads(out)
        assert err == "" and code == (0 if payload["report"]["pass"] else 1)
        seed = payload["seed"]
        assert isinstance(seed, int) and 0 <= seed < 2**63
        # the reported seed reproduces the run
        again = json.loads(run(capsys, *argv, "--seed", str(seed))[1])
        assert again["report"] == payload["report"]

    @pytest.mark.parametrize("target, dist, n, p, cov, reps, stat, plugin", [
        ("thm1", "gaussian", 10, 2, "identity", 3000, "scm", False),
        ("thm1", "gaussian", 12, 2, "identity", 3000, "wscm:fobi", False),
        ("thm3", "k:0.5", 10, 3, "identity", 3000, "scm", False),
        ("transport", "gaussian", 10, 2, "diag:1,3", 3000, "scm", False),
        ("transport", "k:0.5", 10, 4, "spiked:gamma=2", 3000, "scm", False),
        ("sphere", "gaussian", 10, 3, "identity", 10000, "scm", False),
        ("oracle", "k:0.5", 10, 4, "spiked:gamma=2", 3000, "scm", False),
        ("oracle", "k:0.5", 10, 4, "spiked:gamma=2", 3000, "scm", True),
    ])
    def test_is_verify_target(self, capsys, target, dist, n, p, cov, reps, stat, plugin):
        argv = ["mc-verify", "--target", target, "--dist", dist, "--n", str(n), "--p", str(p),
                "--cov", cov, "--reps", str(reps), "--seed", "7", "--stat", stat, "--json"]
        code, out, _ = run(capsys, *argv, *(["--plugin"] if plugin else []))
        report = verify_target(target, dist, n, p, cov, reps, 7, statistic=stat, plugin=plugin)
        payload = json.loads(out)["report"]
        assert payload == report.to_dict()
        assert code == (0 if report.passed else 1)
        checks = payload["checks"]
        assert payload["pass"] == all(c["value"] < c["limit"] for c in checks.values())
        for check in checks.values():
            assert set(check) == {"value", "limit"}
            assert isinstance(check["value"], float) and isinstance(check["limit"], float)

    @pytest.mark.parametrize("target", ["thm1", "thm3", "sphere"])
    def test_ignores_a_malformed_cov(self, capsys, target):
        # only transport and oracle read --cov
        code, out, err = run(
            capsys, "mc-verify", "--target", target, "--p", "2", "--cov", "diag:oops",
            "--reps", "10000", "--seed", "1", "--json",
        )
        assert code in (0, 1) and err == ""
        assert json.loads(out)["config"]["cov"] == "diag:oops"

    @pytest.mark.parametrize("target", ["transport", "oracle"])
    def test_rejects_a_malformed_cov(self, capsys, target):
        code, out, err = run(
            capsys, "mc-verify", "--target", target, "--p", "2", "--cov", "diag:oops",
            "--reps", "10000", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: cannot parse --cov 'diag:oops'\n"

    def test_sphere_never_parses_family(self, capsys):
        code, out, _ = run(
            capsys, "mc-verify", "--target", "sphere", "--dist", "t:3", "--p", "2",
            "--reps", "10000", "--seed", "1", "--json",
        )
        assert code == 0
        assert json.loads(out)["report"]["pass"] is True


class TestEstimate:
    def test_round_trip(self, capsys, tmp_path):
        data = tmp_path / "x.csv"
        run(
            capsys, "sample", "--dist", "gaussian", "--n", "20000", "--p", "2",
            "--cov", "diag:1,3", "--seed", "11", "--out", str(data),
        )
        code, out, _ = run(capsys, "estimate", "--in", str(data), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["partial"] is False
        assert abs(payload["kappa"]) < 0.05
        assert payload["gamma"] == pytest.approx(1.25, abs=0.05)
        n, p, g = payload["n"], payload["p"], payload["gamma"]
        expected_beta = 1 / (1 + (p / g) / (n - 1))
        assert payload["beta_o"] == pytest.approx(expected_beta, abs=0.05)
        scm_entries = np.asarray(payload["scm"])
        diag0 = scm_entries[0][0]
        assert diag0[0] == pytest.approx(1.0, abs=0.1)

    def test_scm_out_file(self, capsys, tmp_path):
        data = tmp_path / "x.csv"
        run(
            capsys, "sample", "--dist", "gaussian", "--n", "50", "--p", "3",
            "--seed", "12", "--out", str(data),
        )
        scm_path = tmp_path / "scm.csv"
        code, out, _ = run(
            capsys, "estimate", "--in", str(data), "--scm-out", str(scm_path),
        )
        assert code == 0
        s = load_complex_matrix(scm_path)
        assert s.shape == (3, 3)
        assert "scm" not in json.loads(out)

    def test_identical_rows_partial(self, capsys, tmp_path):
        from cescov.lin_core import save_complex_matrix

        data = tmp_path / "flat.csv"
        save_complex_matrix(data, np.tile([1.0 + 1j, 2.0], (6, 1)))
        code, out, _ = run(capsys, "estimate", "--in", str(data), "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["partial"] is True
        assert payload["error"]

    def test_rank_one_dataset(self, capsys, tmp_path):
        # the sphericity of a rank-one SCM is p, and comes out up to 2e-15
        # above it in many of these datasets
        from cescov.lin_core import save_complex_matrix

        gen = np.random.default_rng(1)
        data, above = tmp_path / "x.csv", 0
        for _ in range(40):
            n, p = gen.integers(4, 12), gen.integers(2, 7)
            a = gen.standard_normal(n) + 1j * gen.standard_normal(n)
            v = gen.standard_normal(p) + 1j * gen.standard_normal(p)
            save_complex_matrix(data, np.outer(a, v))
            code, out, err = run(capsys, "estimate", "--in", str(data), "--json")
            assert code == 0, err
            payload = json.loads(out)
            assert np.isfinite(payload["nmse"]) and 0.0 < payload["beta_o"] < 1.0
            above += payload["gamma"] > p
        assert above > 0

    def test_dataset_with_a_scaled_identity_scm(self, capsys, tmp_path):
        # rows +-s e_i give the SCM (2 s^2 / (2p - 1)) I, whose sphericity 1
        # comes out just below 1 here
        from cescov.lin_core import save_complex_matrix

        data = tmp_path / "x.csv"
        e = 0.1 * np.eye(3)
        save_complex_matrix(data, np.vstack([e, -e]))
        code, out, err = run(capsys, "estimate", "--in", str(data), "--json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["gamma"] < 1.0
        assert np.isfinite(payload["nmse"]) and 0.0 < payload["beta_o"] < 1.0

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,matrix\n")
        code, _, err = run(capsys, "estimate", "--in", str(bad))
        assert code == 2
        assert "malformed" in err

    def test_huge_declared_row_count(self, capsys, tmp_path):
        # the reader grows its result as rows arrive, never from the header
        data = tmp_path / "big.csv"
        data.write_text("# 100000000000 1\nre_1,im_1\n1,0\n")
        code, _, err = run(capsys, "estimate", "--in", str(data))
        assert code == 2
        assert "expected 100000000000 data rows, found 1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--in", str(tmp_path / "nope.csv"))
        assert code == 2

    @pytest.mark.parametrize("rows, message", [
        (np.arange(6.0).reshape(3, 2), "need at least 4 observations, got 3"),
        (np.ones((6, 2)), "trace must be positive, got 0.000e+00"),
        (np.ones((3, 2)), "trace must be positive, got 0.000e+00"),
        (np.stack([np.arange(6.0), np.ones(6)], axis=1), "coordinate 1 has zero sample variance"),
    ], ids=["n3", "identical-rows-n6", "identical-rows-n3", "constant-column"])
    def test_partial_estimate_names_the_first_error(self, capsys, tmp_path, rows, message):
        # the sphericity's ZeroTrace comes before the kurtosis's n >= 4, and
        # that before its degenerate coordinate; the SCM and the mean are
        # printed, and none of the five plug-in values
        from cescov.lin_core import save_complex_matrix

        data = tmp_path / "x.csv"
        save_complex_matrix(data, rows + 0j)
        code, out, _ = run(capsys, "estimate", "--in", str(data), "--json")
        payload = json.loads(out)
        assert (code, payload["partial"], payload["error"]) == (2, True, message)
        assert [payload[k] for k in ("eta", "gamma", "kappa", "nmse", "beta_o")] == [None] * 5
        assert len(payload["scm"]) == 2 and len(payload["xbar"]) == 2

    def test_overflowing_scm_is_refused(self, capsys, tmp_path):
        from cescov.lin_core import save_complex_matrix

        data = tmp_path / "x.csv"
        save_complex_matrix(data, 1e200 * np.stack([np.arange(6.0), -np.arange(6.0)], axis=1) + 0j)
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, "estimate", "--in", str(data))
        assert (code, out, err) == (2, "", "error: matrix contains non-finite entries\n")

    def test_one_row_dataset(self, capsys, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("# 1 2\nre_1,im_1,re_2,im_2\n1,0,2,0\n")
        code, _, err = run(capsys, "estimate", "--in", str(data))
        assert (code, err) == (2, "error: need at least 2 observations, got 1\n")


@pytest.mark.parametrize("argv", [
    ["sample", "--dist", "gaussian", "--n", "10", "--p", "2", "--seed", "1", "--out"],
    ["curve", "--out"],
    ["estimate", "--in", "x.csv", "--scm-out"],
])
def test_missing_output_directory_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("# 2 1\nre_1,im_1\n1,0\n2,0\n")
    code, out, err = run(capsys, *argv, "missing/out.csv")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing/out.csv" in err


class TestModuleEntryPoint:
    @pytest.mark.parametrize("gamma, code", [("2", 0), ("0.5", 2)])
    def test_python_dash_m(self, gamma, code):
        # `python -m cescov` runs the CLI from a source tree, exit code included
        env = {**os.environ, "PYTHONPATH": str(Path(cescov.__file__).parents[1])}
        argv = ["theory", "--n", "10", "--p", "4", "--kappa", "0", "--gamma", gamma]
        done = subprocess.run([sys.executable, "-m", "cescov", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert json.loads(done.stdout)["gamma"] == 2.0
        else:
            assert done.stderr.startswith("error: sphericity must lie in [1, p]")

import gc
import json
import weakref

import numpy as np
import pytest

from pfa import cli, harness
from pfa.cli import main
from pfa.factors import build_factor_model, select_num_factors, standard_factor_draws
from pfa.fdr import UnreachableAlphaError, approx_fdr
from pfa.harness import run_estimate
from pfa.lad import FactorFit
from pfa.linalg import equal_correlation, spectral_decompose
from pfa.simulate import Scenario, generate_design, sample_correlation
from test_harness import first_draw, sigma_hat, small_config


def write_matrix(path, entries):
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in entries) + "\n")


def write_vector(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


@pytest.fixture()
def identity_sigma(tmp_path):
    path = tmp_path / "sigma.csv"
    write_matrix(path, equal_correlation(400, 0.0).entries)
    return path


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


class TestEstimateCommand:
    def test_identity_report(self, tmp_path, identity_sigma, capsys):
        rng = np.random.default_rng(0)
        z_path = tmp_path / "z.csv"
        write_vector(z_path, rng.standard_normal(400))
        code = main(
            [
                "estimate",
                "--sigma",
                str(identity_sigma),
                "--z",
                str(z_path),
                "--t",
                "0.05",
                "--epsilon",
                "0.06",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 0
        assert report["fdp"] == pytest.approx(min(400 * 0.05, report["R"]) / report["R"])
        # tail^2(0) = ||I||_F^2 = 400
        assert report["tail_energy_at_k"] == 20.0

    def test_matches_in_memory_pipeline(self, tmp_path, capsys):
        scenario = Scenario(kind="two_factor", p=50, n=60, p1=4)
        state, z = first_draw(small_config(scenario=scenario, seed=1))
        sigma = sigma_hat(state)
        sigma_path = tmp_path / "sigma.csv"
        z_path = tmp_path / "z.csv"
        write_matrix(sigma_path, sigma.entries)
        write_vector(z_path, z)
        code = main(
            ["estimate", "--sigma", str(sigma_path), "--z", str(z_path), "--t", "0.02"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        direct = run_estimate(z, sigma, t=0.02)
        assert report["k"] == direct["k"]
        assert report["fdp"] == pytest.approx(direct["fdp"], rel=1e-12)
        assert report["w_hat"] == pytest.approx(direct["w_hat"], rel=1e-12)

    def test_dimension_mismatch_is_input_error(self, tmp_path, identity_sigma, capsys):
        z_path = tmp_path / "z.csv"
        write_vector(z_path, np.ones(3))
        code = main(
            ["estimate", "--sigma", str(identity_sigma), "--z", str(z_path), "--t", "0.05"]
        )
        assert code == 2
        assert f"{z_path}: z has length 3 but the matrix has dimension" in capsys.readouterr().err

    def test_parse_error_is_input_error(self, tmp_path, identity_sigma, capsys):
        z_path = tmp_path / "z.csv"
        z_path.write_text("1.0\nnot-a-number\n")
        code = main(
            ["estimate", "--sigma", str(identity_sigma), "--z", str(z_path), "--t", "0.05"]
        )
        assert code == 2
        assert ":2" in capsys.readouterr().err

    def test_non_finite_statistic_is_input_error(self, tmp_path, identity_sigma, capsys):
        z_path = tmp_path / "z.csv"
        write_vector(z_path, [0.5] * 399 + [float("nan")])
        code = main(
            ["estimate", "--sigma", str(identity_sigma), "--z", str(z_path), "--t", "0.05"]
        )
        assert code == 2
        assert "z.csv:400: non-finite" in capsys.readouterr().err

    def test_text_that_is_not_utf8_names_the_line(self, tmp_path, identity_sigma, capsys):
        # Far enough down that the bad byte lies beyond the first block a text reader decodes.
        z_path = tmp_path / "z.csv"
        z_path.write_bytes(b"0.5\n" * 3000 + b"0.2\xe9\n" + b"0.5\n" * 10)
        code = main(["estimate", "--sigma", str(identity_sigma), "--z", str(z_path), "--t", "0.05"])
        assert code == 2
        assert "z.csv:3001: not valid UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("1.0\nnot-a-number\n", "z.csv:2: could not parse"), ("0.5\n\ninf\n", "z.csv:3: non-finite")],
    )
    def test_bad_statistics_are_reported_before_the_matrix_is_read(self, tmp_path, capsys, text, message):
        z_path = tmp_path / "z.csv"
        z_path.write_text(text)
        missing = tmp_path / "absent.csv"
        code = main(["estimate", "--sigma", str(missing), "--z", str(z_path), "--t", "0.05"])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "absent.csv" not in err

    @pytest.mark.parametrize("t", ["1.5", "0", "-0.2"])
    def test_threshold_outside_unit_interval_is_input_error(self, tmp_path, identity_sigma, capsys, t):
        z_path = tmp_path / "z.csv"
        write_vector(z_path, np.random.default_rng(0).standard_normal(400))
        code = main(
            ["estimate", "--sigma", str(identity_sigma), "--z", str(z_path), "--t", t, "--epsilon", "0.06"]
        )
        assert code == 2
        assert "threshold must lie in (0, 1)" in capsys.readouterr().err

    def test_more_factors_than_calibration_rows_names_the_file_and_flags(self, tmp_path, capsys):
        # At the default epsilon an exchangeable sigma gets k = 282 factors, beyond the 225 rows of fraction 0.75.
        sigma_path, z_path = tmp_path / "sigma.csv", tmp_path / "z.csv"
        write_matrix(sigma_path, equal_correlation(300, 0.3).entries)
        write_vector(z_path, np.random.default_rng(0).standard_normal(300))
        assert main(["estimate", "--sigma", str(sigma_path), "--z", str(z_path), "--t", "0.05"]) == 2
        err = capsys.readouterr().err
        assert f"error: {sigma_path}: k=282 factors exceed the m=225 calibration rows" in err
        assert "--epsilon" in err and "--fraction" in err

    def test_the_matrix_and_its_decomposition_are_released_before_the_fit(self, tmp_path, monkeypatch, capsys):
        matrices, alive_at_fit = [], []
        z_path = tmp_path / "z.csv"
        write_vector(z_path, np.random.default_rng(0).standard_normal(300))

        def read_matrix(path):
            sigma = equal_correlation(300, 0.3)
            matrices.extend([weakref.ref(sigma), weakref.ref(sigma.entries)])
            return sigma

        def decompose(sigma, epsilon):
            # k = 282 lies beyond the window, so the system holds all 300 x 300 eigenvectors.
            system = spectral_decompose(sigma, epsilon)
            assert system.vectors.shape == (300, 300)
            matrices.append(weakref.ref(system))
            return system

        def fit(loadings, z):
            gc.collect()
            alive_at_fit.extend(ref() is not None for ref in matrices)
            return FactorFit(w_hat=np.zeros(loadings.shape[1]), objective=0.0, iterations=0, converged=True)

        monkeypatch.setattr(cli, "read_matrix_csv", read_matrix)
        monkeypatch.setattr(harness, "spectral_decompose", decompose)
        monkeypatch.setattr(harness, "lad_regress", fit)
        # A fraction of 1 gives the fit all 300 rows, enough for the 282 factors.
        argv = ["estimate", "--sigma", "unused.csv", "--z", str(z_path), "--t", "0.05", "--fraction", "1"]
        assert main(argv) == 0
        assert alive_at_fit == [False, False, False]
        assert json.loads(capsys.readouterr().out)["k"] == 282


class TestControlCommand:
    def test_closed_form_inversion(self, tmp_path, capsys):
        sigma_path = tmp_path / "sigma.csv"
        write_matrix(sigma_path, equal_correlation(2000, 0.0).entries)
        code = main(
            [
                "control",
                "--sigma",
                str(sigma_path),
                "--p1",
                "10",
                "--alpha",
                "0.15",
                "--epsilon",
                "0.03",
                "--tol",
                "1e-6",
            ]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["k"] == 0
        assert result["tail_energy_at_k"] == pytest.approx(np.sqrt(2000.0), rel=1e-15)
        assert result["t_star"] == pytest.approx(1.5 / 1700.0, rel=1e-3)
        assert abs(result["fdr_at_t"] - 0.15) <= 1e-6
        assert result["solver"]["converged"] is True
        assert result["solver"]["evaluations"] <= 44
        assert len(result["curve"]) == 40
        fdrs = [point["fdr"] for point in result["curve"]]
        assert fdrs == sorted(fdrs)

    def test_reports_the_factor_model_and_the_solver(self, tmp_path, capsys):
        sigma, _ = sample_correlation(
            generate_design(Scenario(kind="two_factor", p=300, n=60), np.random.default_rng(4))
        )
        sigma_path = tmp_path / "sigma.csv"
        write_matrix(sigma_path, sigma.entries)
        args = ["--sigma", str(sigma_path), "--p1", "5", "--alpha", "0.1", "--mc", "300", "--seed", "2"]
        assert main(["control", *args]) == 0
        result = json.loads(capsys.readouterr().out)
        system = spectral_decompose(sigma)
        k = select_num_factors(system, 0.01)
        assert result["k"] == k
        assert result["tail_energy_at_k"] == pytest.approx(system.tail_energy(k), rel=1e-9)
        assert result["solver"]["converged"] is True
        assert 41 <= result["solver"]["evaluations"] <= 44
        assert abs(result["fdr_at_t"] - 0.1) <= 1e-4
        model = build_factor_model(spectral_decompose(sigma, 0.01), k)
        draws = standard_factor_draws(k, 300, 2)
        assert result["fdr_at_t"] == approx_fdr(result["t_star"], model, 5, draws)
        assert [point["fdr"] for point in result["curve"]] == [
            approx_fdr(point["t"], model, 5, draws) for point in result["curve"]
        ]

    def test_unreachable_alpha_exit_code(self, tmp_path, capsys):
        sigma_path = tmp_path / "sigma.csv"
        write_matrix(sigma_path, equal_correlation(100, 0.0).entries)
        code = main(
            [
                "control",
                "--sigma",
                str(sigma_path),
                "--p1",
                "90",
                "--alpha",
                "0.9",
                "--epsilon",
                "0.2",
            ]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["unreachable"] is True
        assert payload["side"] == "high"

    def test_the_matrix_is_released_before_the_solve(self, monkeypatch, capsys):
        matrices, alive_at_solve = [], []

        def read_matrix(path):
            sigma = equal_correlation(300, 0.3)
            matrices.extend([weakref.ref(sigma), weakref.ref(sigma.entries)])
            return sigma

        def decompose(sigma, epsilon):
            # k = 282 lies beyond the window, so the system holds all 300 x 300 eigenvectors.
            system = spectral_decompose(sigma, epsilon)
            assert system.vectors.shape == (300, 300)
            matrices.append(weakref.ref(system))
            return system

        def solve(*args, **kwargs):
            gc.collect()
            alive_at_solve.extend(ref() is not None for ref in matrices)
            raise UnreachableAlphaError(0.1, 0.5, 0.2, "high")

        monkeypatch.setattr(cli, "read_matrix_csv", read_matrix)
        monkeypatch.setattr(cli, "spectral_decompose", decompose)
        monkeypatch.setattr(cli, "solve_threshold", solve)
        assert main(["control", "--sigma", "unused.csv", "--p1", "5", "--alpha", "0.1", "--mc", "50"]) == 3
        assert alive_at_solve == [False, False, False]
        assert json.loads(capsys.readouterr().out)["unreachable"] is True

    @pytest.mark.parametrize("p1", ["51", "80"])
    def test_p1_beyond_the_dimension_is_reported_before_the_decomposition(self, tmp_path, monkeypatch, capsys, p1):
        sigma_path = tmp_path / "sigma.csv"
        write_matrix(sigma_path, equal_correlation(50, 0.0).entries)
        monkeypatch.setattr(cli, "spectral_decompose", None)  # a call would fail with a TypeError
        assert main(["control", "--sigma", str(sigma_path), "--p1", p1, "--alpha", "0.1"]) == 2
        assert f"error: {sigma_path}: p1 is {p1} but the matrix has dimension 50" in capsys.readouterr().err


class TestArgumentsCheckedBeforeFiles:
    """Bad cheap arguments exit 2 before the (possibly large) matrix is read."""

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("estimate", ["--t", "1.5"], "threshold must lie in (0, 1)"),
            ("estimate", ["--t", "0.05", "--epsilon", "1.0"], "epsilon must lie in (0, 1)"),
            ("estimate", ["--t", "0.05", "--fraction", "0"], "fraction must lie in (0, 1]"),
            ("control", ["--p1", "5", "--alpha", "1.5"], "alpha must lie in (0, 1)"),
            ("control", ["--p1", "5", "--alpha", "0.1", "--epsilon", "0"], "epsilon must lie in (0, 1)"),
            ("control", ["--p1", "-1", "--alpha", "0.1"], "p1 must not be negative"),
            ("control", ["--p1", "5", "--alpha", "0.1", "--mc", "0"], "mc must be positive"),
            ("control", ["--p1", "5", "--alpha", "0.1", "--tol", "0"], "tol must be positive"),
            ("control", ["--p1", "5", "--alpha", "0.1", "--tol", "-1"], "tol must be positive"),
            ("control", ["--p1", "5", "--alpha", "0.1", "--seed", "-1"], "seed must not be negative"),
        ],
    )
    def test_argument_error_precedes_missing_file(self, tmp_path, capsys, command, flags, message):
        missing = tmp_path / "absent.csv"
        inputs = ["--sigma", str(missing)] + (["--z", str(missing)] if command == "estimate" else [])
        code = main([command, *inputs, *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "absent.csv" not in err


class TestSimulateCommand:
    def test_deterministic_output_files(self, tmp_path, capsys):
        config = {
            "scenario": {"kind": "two_factor", "p": 60, "n": 40, "p1": 4},
            "t_grid": [0.02],
            "n_reps": 5,
            "seed": 7,
            "n_mc": 200,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        for name in ("run1", "run2"):
            code = main(
                ["simulate", "--config", str(config_path), "--out", str(tmp_path / name)]
            )
            assert code == 0
        for name in ("records.csv", "aggregates.json"):
            assert (tmp_path / "run1" / name).read_bytes() == (
                tmp_path / "run2" / name
            ).read_bytes()

    def test_missing_seed_is_input_error(self, tmp_path, capsys):
        config = {
            "scenario": {"kind": "two_factor", "p": 60, "n": 40, "p1": 4},
            "t_grid": [0.02],
            "n_reps": 5,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config_key",
        [
            (["--mc", "1"], None),
            (["--alpha", "1.5"], None),
            (["--fraction", "1.5"], None),
        ],
    )
    def test_out_of_range_settings_are_input_errors(self, tmp_path, capsys, flags, config_key):
        config = {
            "scenario": {"kind": "two_factor", "p": 60, "n": 40, "p1": 4},
            "t_grid": [0.02],
            "n_reps": 5,
            "seed": 7,
        }
        if config_key is not None:
            config[config_key[0]] = config_key[1]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "x"
        code = main(["simulate", "--config", str(config_path), "--out", str(out_dir), *flags])
        assert code == 2
        assert "must" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_json_is_input_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "x")])
        assert code == 2


class TestConfigKeys:
    """A config with an unknown or missing key, or a value of the wrong type, exits 2 and names the file."""

    SIMULATE = {
        "scenario": {"kind": "two_factor", "p": 60, "n": 40, "p1": 4},
        "t_grid": [0.02],
        "n_reps": 5,
        "seed": 7,
        "n_mc": 200,
    }
    CONVERGENCE = {
        "scenario": {"kind": "two_factor", "p": 40, "n": 30, "p1": 4},
        "p_grid": [40],
        "t_grid": [0.05],
        "n_reps": 10,
        "seed": 3,
    }

    def run(self, tmp_path, command, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main([command, "--config", str(config_path), "--out", str(out_dir)])
        return code, out_dir, str(config_path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_rep": 5}, "unknown config key 'n_rep'"),
            ({"placement": "first"}, "unknown config key 'placement'"),
            ({"efron_x0": 1.0}, "unknown config key 'efron_x0'"),
            ({"storey_lambda": 0.5}, "unknown config key 'storey_lambda'"),
            ({"scenario": {"p": 60, "n": 40}}, "scenario is missing required key 'kind'"),
            ({"scenario": {"kind": "two_factor", "p": 60, "rh0": 0.2}}, "unknown scenario key 'rh0'"),
            ({"n_reps": "5"}, "n_reps must be an integer, got '5'"),
            ({"n_reps": 4.5}, "n_reps must be an integer, got 4.5"),
            ({"n_mc": 20.5}, "n_mc must be an integer, got 20.5"),
            ({"seed": "7"}, "seed must be an integer, got '7'"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"seed": -1}, "seed must not be negative, got -1"),
            ({"scenario": {"kind": "two_factor", "p": 60.5, "n": 40, "p1": 4}}, "p must be an integer, got 60.5"),
            ({"t_grid": [0.02, 0.01, 0.02]}, "t_grid repeats 0.02"),
            ({"epsilon": "0.01"}, "epsilon must be a finite real number, got '0.01'"),
            ({"epsilon": 5}, "epsilon must lie in (0, 1), got 5.0"),
            ({"t_grid": ["0.02"]}, "t_grid entry must be a finite real number, got '0.02'"),
            ({"control_alpha": "0.1"}, "control_alpha must be a finite real number, got '0.1'"),
            ({"scenario": {"kind": "two_factor", "p": 60, "beta": "1"}}, "beta must be a finite real number, got '1'"),
            ({"with_estimators": "false"}, "with_estimators must be a boolean, got 'false'"),
            ({"with_estimators": None}, "with_estimators must be a boolean, got None"),
        ],
    )
    def test_simulate(self, tmp_path, capsys, change, message):
        code, out_dir, config_path = self.run(tmp_path, "simulate", {**self.SIMULATE, **change})
        err = capsys.readouterr().err
        assert code == 2
        assert f"{config_path}: {message}" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "change, dropped, message",
        [
            ({}, "p_grid", "config is missing required key 'p_grid'"),
            ({"epsilom": 0.01}, None, "unknown config key 'epsilom'"),
            ({"scenario": {"kind": "two_factor", "p": 40, "p_1": 4}}, None, "unknown scenario key 'p_1'"),
            ({"scenario": {"p": 40}}, None, "scenario is missing required key 'kind'"),
            ({"scenario": {"kind": "two_factor", "p": "40"}}, None, "p must be an integer, got '40'"),
            ({"p_grid": 40}, None, "'int' object is not iterable"),
            ({"p_grid": [40, 60.0]}, None, "p must be an integer, got 60.0"),
            ({"p_grid": [40, 60, 40]}, None, "p_grid repeats 40"),
            ({"p_grid": []}, None, "p_grid must not be empty"),
            ({"t_grid": [0.05, 0.05]}, None, "t_grid repeats 0.05"),
            ({"n_reps": 10.5}, None, "n_reps must be an integer, got 10.5"),
            ({"seed": 1.5}, None, "seed must be an integer, got 1.5"),
            ({"seed": -3}, None, "seed must not be negative, got -3"),
            ({"epsilon": "0.01"}, None, "epsilon must be a finite real number, got '0.01'"),
            ({"t_grid": ["0.05"]}, None, "t_grid entry must be a finite real number, got '0.05'"),
        ],
    )
    def test_convergence(self, tmp_path, capsys, change, dropped, message):
        config = {key: value for key, value in {**self.CONVERGENCE, **change}.items() if key != dropped}
        code, out_dir, config_path = self.run(tmp_path, "convergence", config)
        assert code == 2
        assert f"{config_path}: {message}" in capsys.readouterr().err
        assert not out_dir.exists()


class TestConvergenceCommand:
    def test_runs_and_reports_ks(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "scenario": {"kind": "two_factor", "p": 40, "n": 30, "p1": 4},
                    "p_grid": [40, 60],
                    "t_grid": [0.05],
                    "n_reps": 30,
                    "seed": 3,
                }
            )
        )
        code = main(["convergence", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 0
        ks = json.loads(capsys.readouterr().out)
        assert set(ks["0.05"].keys()) == {"40", "60"}

    def test_p_grid_entry_below_p1_writes_nothing(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "scenario": {"kind": "two_factor", "p": 40, "n": 30, "p1": 4},
                    "p_grid": [40, 3],
                    "t_grid": [0.05],
                    "n_reps": 10,
                    "seed": 3,
                }
            )
        )
        out_dir = tmp_path / "out"
        code = main(["convergence", "--config", str(config_path), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{config_path}: at p = 3: p1 must lie in [0, p], got 4" in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

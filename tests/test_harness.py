import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import pfa.harness
from pfa.factors import build_factor_model, select_num_factors
from pfa.harness import (
    _NS_DESIGN,
    ExperimentConfig,
    _draw_statistics,
    load_output,
    prepare_scenario,
    read_matrix_csv,
    read_vector_csv,
    run_convergence,
    run_estimate,
    run_experiment,
    substream,
    variance_study,
    write_output,
)
from pfa.lad import lad_regress
from pfa.linalg import CorrelationMatrix, equal_correlation, spectral_decompose
from pfa.simulate import SCENARIO_KINDS, Scenario, generate_design, sample_correlation, standardize


def small_config(**overrides):
    base = dict(
        scenario=Scenario(kind="two_factor", p=80, n=40, p1=5),
        t_grid=(0.01, 0.05),
        n_reps=8,
        seed=99,
        n_mc=400,
        with_estimators=True,
        control_alpha=0.1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_round_trip(self):
        config = small_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_dict_names_unknown_and_missing_keys(self):
        data = small_config().to_dict()
        with pytest.raises(ValueError, match="unknown config key 'n_rep'"):
            ExperimentConfig.from_dict({**data, "n_rep": 3})
        without_grid = {key: value for key, value in data.items() if key != "t_grid"}
        with pytest.raises(ValueError, match="config is missing required key 't_grid'"):
            ExperimentConfig.from_dict(without_grid)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(t_grid=())
        with pytest.raises(ValueError):
            small_config(t_grid=(0.0,))
        with pytest.raises(ValueError):
            small_config(n_reps=0)

    @pytest.mark.parametrize(
        "override",
        [
            {"n_mc": 1},
            {"control_alpha": 0.0},
            {"control_alpha": 1.5},
            {"calibration_fraction": 0.0},
            {"calibration_fraction": 1.5},
        ],
    )
    def test_rejects_out_of_range_settings(self, override):
        with pytest.raises(ValueError, match=next(iter(override))):
            small_config(**override)

    def test_integer_fields_take_any_integer_type(self):
        config = small_config(
            scenario=Scenario(kind="two_factor", p=np.int64(80), n=np.int32(40), p1=np.uint8(5)),
            n_reps=np.int64(8),
            seed=np.int16(99),
            n_mc=np.int64(400),
        )
        assert config == small_config()
        for value in (config.n_reps, config.seed, config.n_mc, config.scenario.p, config.scenario.n):
            assert type(value) is int
        assert json.loads(json.dumps(config.to_dict())) == small_config().to_dict()

    @pytest.mark.parametrize("name", ["n_reps", "seed", "n_mc"])
    @pytest.mark.parametrize("value", [8.0, "8", True, np.bool_(True), None])
    def test_integer_fields_reject_other_types(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
            small_config(**{name: value})

    @pytest.mark.parametrize("name", ["p", "n", "p1"])
    def test_scenario_integer_fields_reject_floats(self, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got 40.5"):
            Scenario(kind="two_factor", **{"p": 80, "n": 40, "p1": 5, name: 40.5})

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must not be negative, got -1"):
            small_config(seed=-1)

    def test_rejects_a_repeated_threshold(self):
        with pytest.raises(ValueError, match="t_grid repeats 0.01"):
            small_config(t_grid=(0.01, 0.05, 0.01))


def sigma_hat(state):
    """The p x p sample correlation x'x of a scenario state."""
    return CorrelationMatrix.from_gram(state.x.T @ state.x)


def first_draw(config):
    """The scenario state of config and the statistics of its replication 0."""
    state = prepare_scenario(config)
    _, statistics = next(_draw_statistics(config, state, 1))
    return state, statistics[0]


class TestPrepareScenario:
    def test_zero_beta_all_null(self):
        state = prepare_scenario(
            small_config(scenario=Scenario(kind="equal_correlation", p=50, n=40, p1=10, beta=0.0))
        )
        assert np.all(state.mu == 0.0)
        assert state.true_nulls.size == 40

    def test_mean_shift_formula(self):
        scenario = Scenario(kind="equal_correlation", p=60, n=100, p1=5, beta=1.0, sigma=2.0)
        config = small_config(scenario=scenario)
        state = prepare_scenario(config)
        _, sds = standardize(generate_design(config.scenario, substream(config.seed, _NS_DESIGN)))
        np.testing.assert_allclose(state.mu[:5], np.sqrt(100) * sds[:5] / 2.0)
        np.testing.assert_array_equal(state.false_nulls, np.arange(5))
        np.testing.assert_array_equal(state.true_nulls, np.arange(5, 60))
        assert np.all(state.mu[5:] == 0.0)
        assert np.all(state.mu[state.true_nulls] == 0.0)

    def test_key_sets_the_design_stream_apart(self):
        config = small_config()
        unkeyed, keyed = prepare_scenario(config), prepare_scenario(config, (0,))
        assert keyed.key == (0,) and unkeyed.key == ()
        assert not np.array_equal(sigma_hat(keyed).entries, sigma_hat(unkeyed).entries)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_low_rank_path_matches_dense_path(self, kind):
        config = small_config(scenario=Scenario(kind=kind, p=300, n=100, p1=5))
        state = prepare_scenario(config)
        sigma, sds = sample_correlation(generate_design(config.scenario, substream(config.seed, _NS_DESIGN)))
        dense = spectral_decompose(sigma)
        values = state.model.eigenvalues
        assert values.shape == (300,)
        assert np.max(np.abs(values - dense.values)) <= 1e-10 * dense.values[0]
        assert state.k == select_num_factors(dense, config.epsilon)
        dense_loadings = build_factor_model(dense, state.k).loadings
        np.testing.assert_allclose(
            state.model.loadings @ state.model.loadings.T, dense_loadings @ dense_loadings.T, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(sigma_hat(state).entries, sigma.entries, rtol=0, atol=1e-12)
        shift = np.sqrt(100) * config.scenario.beta * sds[:5] / config.scenario.sigma
        np.testing.assert_array_equal(state.mu[:5], shift)

    def test_no_p_by_p_array_is_built(self):
        p = 4000
        config = small_config(scenario=Scenario(kind="two_factor", p=p, n=100, p1=10), n_reps=512)
        tracemalloc.start()
        try:
            state = prepare_scenario(config)
            next(_draw_statistics(config, state))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8 / 4


class TestDrawStatistics:
    def test_identity_covariance_of_draws(self):
        scenario = Scenario(kind="equal_correlation", p=10, n=5000, p1=0, rho=0.0)
        config = small_config(scenario=scenario, n_reps=20000)
        state = prepare_scenario(config)
        draws = np.concatenate([chunk for _, chunk in _draw_statistics(config, state, 4096)])
        assert draws.shape == (20000, 10)
        cov = np.cov(draws.T)
        assert np.max(np.abs(cov - np.eye(10))) < 0.05

    def test_correlated_draws_have_covariance_sigma_hat(self):
        scenario = Scenario(kind="equal_correlation", p=8, n=50, p1=2, rho=0.5)
        config = small_config(scenario=scenario, n_reps=20000)
        state = prepare_scenario(config)
        draws = np.concatenate([chunk for _, chunk in _draw_statistics(config, state, 4096)])
        sigma = sigma_hat(state).entries
        assert np.min(sigma[~np.eye(8, dtype=bool)]) > 0.2
        assert np.max(np.abs(np.cov(draws.T) - sigma)) < 0.05
        assert np.max(np.abs(draws.mean(axis=0) - state.mu)) < 0.05

    def test_chunks_cover_every_replication_in_order(self):
        config = small_config(n_reps=7)
        state = prepare_scenario(config)
        chunks = list(_draw_statistics(config, state, 3))
        assert [list(reps) for reps, _ in chunks] == [[0, 1, 2], [3, 4, 5], [6]]
        whole = next(_draw_statistics(config, state, 7))[1]
        np.testing.assert_allclose(np.concatenate([z for _, z in chunks]), whole, rtol=0, atol=1e-12)


class TestRunExperiment:
    def test_deterministic_records(self):
        config = small_config()
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.records == second.records
        assert first.aggregates == second.aggregates

    def test_estimator_columns_optional(self):
        output = run_experiment(small_config(with_estimators=False, control_alpha=None))
        row = output.records[0]
        assert row["fdp_pfa"] is None
        assert row["fdp_bh_proc"] is None
        assert row["lad_converged"] is None
        summary = output.aggregates["per_t"][repr(0.01)]
        assert "mean_fdp_pfa" not in summary
        assert "n_lad_uncertified" not in summary
        assert "mean_V" in summary

    def test_aggregates_embed_config_seed_version(self):
        output = run_experiment(small_config())
        assert output.aggregates["config"]["seed"] == 99
        assert output.aggregates["version"]
        assert output.aggregates["config"]["scenario"]["kind"] == "two_factor"
        assert output.aggregates["false_nulls"] == [0, 1, 2, 3, 4]

    def test_uncertified_fits_are_counted(self, monkeypatch):
        def uncertified(*args):
            return dataclasses.replace(lad_regress(*args), converged=False)

        certified = run_experiment(small_config())
        monkeypatch.setattr(pfa.harness, "lad_regress", uncertified)
        output = run_experiment(small_config())
        assert {row["lad_converged"] for row in certified.records} == {1}
        assert {row["lad_converged"] for row in output.records} == {0}
        for t in (0.01, 0.05):
            assert certified.aggregates["per_t"][repr(t)]["n_lad_uncertified"] == 0
            assert output.aggregates["per_t"][repr(t)]["n_lad_uncertified"] == 8

    def test_fits_with_every_positive_factor_are_certified(self):
        # With k = n - 1 the null statistics lie in the span of the loadings.
        config = small_config(scenario=Scenario(kind="two_factor", p=300, n=100, p1=10), n_reps=3, epsilon=1e-6)
        output = run_experiment(config)
        assert output.aggregates["k"] == 99
        assert {row["lad_converged"] for row in output.records} == {1}

    @pytest.mark.parametrize("with_estimators, sizes", [(False, (1, 3)), (True, (1, 3))])
    def test_records_do_not_depend_on_the_chunk_size(self, monkeypatch, with_estimators, sizes):
        # Each replication draws from its own substream, and its counts come from one batched call
        # per chunk. A one-row chunk is multiplied as one of two rows, so the estimators of a
        # replication drawn alone keep their last bits.
        config = small_config(with_estimators=with_estimators)
        default = run_experiment(config)
        draw = pfa.harness._draw_statistics
        for size in sizes:
            monkeypatch.setattr(pfa.harness, "_draw_statistics", lambda config, state: draw(config, state, size))
            output = run_experiment(config)
            assert output.records == default.records
            assert output.aggregates == default.aggregates

    def test_per_t_aggregates_match_one_threshold_runs(self):
        # The Monte-Carlo keys of every threshold come from one sweep of the shared draws.
        config = small_config(t_grid=(0.01, 0.05, 0.002), with_estimators=False, control_alpha=None)
        swept = run_experiment(config).aggregates["per_t"]
        assert swept[repr(0.05)]["var_numerator_all"] > 0.0
        for t in config.t_grid:
            alone = run_experiment(dataclasses.replace(config, t_grid=(t,))).aggregates["per_t"]
            assert swept[repr(t)] == alone[repr(t)]

    def test_columns_hold_one_array_per_record_column(self):
        config = small_config(n_reps=1100, with_estimators=False)
        output = run_experiment(config)
        assert list(output.columns) == list(pfa.harness.RECORD_COLUMNS[2:])
        for name, values in output.columns.items():
            if name in ("fdp_pfa", "fdp_efron", "fdp_storey", "lad_converged"):
                assert values is None
            else:
                assert values.shape == (1100, 2)
        np.testing.assert_array_equal(output.columns["R"], output.columns["V"] + output.columns["S"])
        # records is a view built on request, across the 1024-replication blocks it is converted in
        records = output.records
        assert [(row["rep"], row["t"]) for row in records] == [(rep, t) for rep in range(1100) for t in (0.01, 0.05)]
        assert [row["V"] for row in records] == output.columns["V"].ravel().tolist()
        assert [row["fdp_bh_proc"] for row in records] == output.columns["fdp_bh_proc"].ravel().tolist()

    def test_peak_memory_is_the_columns_not_one_object_per_record(self):
        # 20,000 replications at two thresholds: one dict per record would take tens of MB.
        scenario = Scenario(kind="two_factor", p=40, n=40, p1=4)
        config = small_config(scenario=scenario, n_reps=20_000, n_mc=200, with_estimators=False, control_alpha=None)
        tracemalloc.start()
        try:
            run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = 4 * config.n_reps * len(config.t_grid) * 8  # R, V, S and fdp_true
        chunk = 256 * (scenario.n + scenario.p) * 8  # one chunk's normals and statistics
        assert peak < 3 * (columns + chunk)

    def test_record_cells_are_plain_python(self):
        # numpy scalars would be written with their numpy-2 repr, "np.float64(...)"
        output = run_experiment(small_config())
        for row in output.records:
            for name, value in row.items():
                assert value is None or type(value) in (int, float), (name, type(value))


def whole_tail_energy(state):
    """Tail energy at k summed over sigma_hat's whole spectrum, which the harness model holds."""
    return float(np.sqrt(np.sum(np.square(state.model.eigenvalues[state.k :]))))


class TestVarianceStudy:
    def test_is_run_experiment_at_one_threshold(self):
        scenario = Scenario(kind="equal_correlation", p=120, n=40, p1=6)
        result = variance_study(scenario, t=0.01, n_reps=300, n_mc=300, seed=5)
        config = ExperimentConfig(
            scenario=scenario, t_grid=(0.01,), n_reps=300, seed=5, n_mc=300, with_estimators=False
        )
        aggregates = run_experiment(config).aggregates
        summary = aggregates["per_t"][repr(0.01)]
        assert result["config"] == aggregates["config"]
        assert result["k"] == aggregates["k"] > 0
        for key, aggregate_key in (
            ("mean_V", "mean_V"),
            ("var_V_empirical", "var_V"),
            ("var_numerator_all", "var_numerator_all"),
            ("var_numerator_nulls", "var_numerator_nulls"),
        ):
            assert result[key] == summary[aggregate_key]

    def test_reports_tail_energy_at_k(self):
        scenario = Scenario(kind="equal_correlation", p=120, n=40, p1=6)
        result = variance_study(scenario, t=0.01, n_reps=50, n_mc=50, seed=5)
        config = ExperimentConfig(
            scenario=scenario, t_grid=(0.01,), n_reps=50, seed=5, n_mc=50, with_estimators=False
        )
        state = prepare_scenario(config)
        assert result["k"] == state.k
        assert result["tail_energy_at_k"] == whole_tail_energy(state)
        assert 0.0 < result["tail_energy_at_k"] < 0.01 * scenario.p


class TestOutputFiles:
    def test_write_then_load_round_trip(self, tmp_path):
        output = run_experiment(small_config())
        write_output(output, tmp_path)
        loaded = load_output(tmp_path)
        assert loaded.records == output.records
        assert loaded.aggregates == output.aggregates
        assert {row["lad_converged"] for row in loaded.records} == {1}
        assert loaded.aggregates["per_t"][repr(0.01)]["n_lad_uncertified"] == 0
        state = prepare_scenario(small_config())
        assert loaded.aggregates["k"] == state.k
        assert loaded.aggregates["tail_energy_at_k"] == whole_tail_energy(state)

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        write_output(run_experiment(config), tmp_path / "a")
        write_output(run_experiment(config), tmp_path / "b")
        for name in ("records.csv", "aggregates.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_loader_rejects_tampered_aggregates(self, tmp_path):
        output = run_experiment(small_config())
        write_output(output, tmp_path)
        path = tmp_path / "aggregates.json"
        written = path.read_text()
        key = repr(0.01)
        for name, shift in (("mean_V", 0.5), ("n_lad_uncertified", 1)):
            data = json.loads(written)
            data["per_t"][key][name] = data["per_t"][key][name] + shift
            path.write_text(json.dumps(data))
            with pytest.raises(ValueError, match=name):
                load_output(tmp_path)

    @pytest.mark.parametrize("missing", ["mean_V", "sd_re_efron", "mean_fdp_storey_proc", "n_lad_uncertified"])
    def test_loader_rejects_a_deleted_record_derived_key(self, tmp_path, missing):
        write_output(run_experiment(small_config()), tmp_path)
        path = tmp_path / "aggregates.json"
        data = json.loads(path.read_text())
        del data["per_t"][repr(0.05)][missing]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=rf"aggregate key '{missing}' present on only one side at t=0.05"):
            load_output(tmp_path)

    def test_loader_rejects_an_unknown_per_threshold_key(self, tmp_path):
        write_output(run_experiment(small_config()), tmp_path)
        path = tmp_path / "aggregates.json"
        data = json.loads(path.read_text())
        data["per_t"][repr(0.01)]["mean_S"] = 1.0
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"aggregate key 'mean_S' present on only one side at t=0.01"):
            load_output(tmp_path)

    def test_loader_rejects_a_0_5_0_config(self, tmp_path):
        write_output(run_experiment(small_config()), tmp_path)
        path = tmp_path / "aggregates.json"
        data = json.loads(path.read_text())
        data["config"].update(placement="first", efron_x0=1.0, storey_lambda=0.5)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown config key 'efron_x0'"):
            load_output(tmp_path)

    def test_loader_skips_the_monte_carlo_keys(self, tmp_path):
        write_output(run_experiment(small_config()), tmp_path)
        path = tmp_path / "aggregates.json"
        data = json.loads(path.read_text())
        for name in ("approx_fdr", "var_numerator_all", "var_numerator_nulls"):
            data["per_t"][repr(0.01)][name] += 0.5
        path.write_text(json.dumps(data))
        assert load_output(tmp_path).aggregates == data


def drop_line(lines, lineno):
    return lines[: lineno - 1] + lines[lineno:]


def swap_lines(lines, first, second):
    lines = list(lines)
    lines[first - 1], lines[second - 1] = lines[second - 1], lines[first - 1]
    return lines


def set_cell(lines, lineno, column, text):
    cells = lines[lineno - 1].split(",")
    cells[pfa.harness.RECORD_COLUMNS.index(column)] = text
    return lines[: lineno - 1] + [",".join(cells)] + lines[lineno:]


class TestLoaderRecordOrder:
    # small_config writes 8 replications at t = 0.01 and 0.05: line 2 holds rep 0 at t = 0.01,
    # line 3 rep 0 at t = 0.05, line 4 rep 1 at t = 0.01, and line 17 rep 7 at t = 0.05.
    @pytest.mark.parametrize(
        "tamper, message",
        [
            pytest.param(
                lambda lines: drop_line(lines, 5),
                r"records\.csv:5: expected rep,t = 1,0\.05 .* found rep,t = 2,0\.01",
                id="dropped",
            ),
            pytest.param(
                lambda lines: drop_line(lines, 17),
                r"records\.csv:17: expected rep,t = 7,0\.05 and 12 cells, found no cells",
                id="dropped-last",
            ),
            pytest.param(
                lambda lines: swap_lines(lines, 4, 6),
                r"records\.csv:4: expected rep,t = 1,0\.01 .* found rep,t = 2,0\.01",
                id="swapped",
            ),
            pytest.param(
                lambda lines: lines + [lines[-1]],
                r"records\.csv:18: expected no further record, found rep,t = 7,0\.05",
                id="extra",
            ),
            pytest.param(
                lambda lines: set_cell(lines, 4, "t", "0.05"),
                r"records\.csv:4: expected rep,t = 1,0\.01 .* found rep,t = 1,0\.05",
                id="wrong-threshold",
            ),
            pytest.param(
                lambda lines: lines[:5] + [lines[5] + ",0"] + lines[6:],
                r"records\.csv:6: .* found rep,t = 2,0\.01 and 13 cells",
                id="extra-cell",
            ),
            pytest.param(
                lambda lines: set_cell(lines, 6, "fdp_pfa", ""),
                r"records\.csv: column 'fdp_pfa': could not convert",
                id="partly-blank",
            ),
            pytest.param(
                lambda lines: set_cell(lines, 6, "V", "1.5"),
                r"records\.csv: column 'V': invalid literal",
                id="non-integer",
            ),
            pytest.param(
                lambda lines: ["rep,t,V,R" + lines[0][9:]] + lines[1:],
                r"records\.csv:1: the header must be",
                id="header",
            ),
        ],
    )
    def test_rejects_records_out_of_write_order(self, tmp_path, tamper, message):
        write_output(run_experiment(small_config()), tmp_path)
        path = tmp_path / "records.csv"
        path.write_text("\n".join(tamper(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=message):
            load_output(tmp_path)

    def test_rejects_values_in_a_column_the_run_leaves_blank(self, tmp_path):
        write_output(run_experiment(small_config(with_estimators=False)), tmp_path)
        path = tmp_path / "records.csv"
        path.write_text("\n".join(set_cell(path.read_text().splitlines(), 3, "fdp_pfa", "0.5")) + "\n")
        with pytest.raises(ValueError, match=r"records\.csv: column 'fdp_pfa' holds values, but this run computes no"):
            load_output(tmp_path)

    def test_round_trip_across_conversion_blocks(self, tmp_path):
        output = run_experiment(small_config(n_reps=1030, with_estimators=False, control_alpha=None))
        write_output(output, tmp_path)
        loaded = load_output(tmp_path)
        for name, values in output.columns.items():
            if values is None:
                assert loaded.columns[name] is None
            else:
                assert loaded.columns[name].dtype == values.dtype
                np.testing.assert_array_equal(loaded.columns[name], values)


class TestRunEstimate:
    def test_identity_reduces_to_count_ratio(self):
        rng = np.random.default_rng(21)
        p, t = 400, 0.05
        sigma = equal_correlation(p, 0.0)
        z = rng.standard_normal(p)
        # epsilon above 1/sqrt(p) so the selection rule keeps zero factors
        report = run_estimate(z, sigma, t=t, epsilon=0.06)
        assert report["k"] == 0
        rejected = report["R"]
        assert report["fdp"] == pytest.approx(min(p * t, rejected) / rejected, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            run_estimate(np.ones(3), equal_correlation(4, 0.0), t=0.05)

    def test_reports_fit_metadata(self):
        scenario = Scenario(kind="two_factor", p=60, n=80, p1=4)
        state, z = first_draw(small_config(scenario=scenario, seed=22))
        report = run_estimate(z, sigma_hat(state), t=0.02)
        assert report["k"] >= 1
        assert report["m"] == 45
        assert len(report["w_hat"]) == report["k"]
        assert 0.0 <= report["fdp"] <= 1.0
        assert report["lad"]["iterations"] >= 1


class TestRunConvergence:
    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            run_convergence(
                scenario=Scenario(kind="two_factor", p=50, n=40, p1=5),
                p_grid=(50,),
                t_grid=(0.05,),
                n_reps=0,
                seed=1,
            )

    def test_every_dimension_checked_before_any_file(self, tmp_path):
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=r"at p = 3: p1 must lie in \[0, p\], got 4"):
            run_convergence(
                scenario=Scenario(kind="two_factor", p=40, n=30, p1=4),
                p_grid=(40, 3),
                t_grid=(0.05,),
                n_reps=10,
                seed=1,
                out_dir=out_dir,
            )
        assert not out_dir.exists()

    def test_rejects_a_repeated_dimension(self, tmp_path):
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="p_grid repeats 40"):
            run_convergence(
                scenario=Scenario(kind="two_factor", p=40, n=30, p1=4),
                p_grid=(40, 60, 40),
                t_grid=(0.05,),
                n_reps=10,
                seed=1,
                out_dir=out_dir,
            )
        assert not out_dir.exists()

    def test_emits_histograms_and_ks(self, tmp_path):
        summary = run_convergence(
            scenario=Scenario(kind="two_factor", p=40, n=30, p1=4),
            p_grid=(40, 60),
            t_grid=(0.05, 0.1),
            n_reps=50,
            seed=4,
            out_dir=tmp_path,
        )
        for t in ("0.05", "0.1"):
            assert set(summary["ks"][t].keys()) == {"40", "60"}
        files = sorted(path.name for path in tmp_path.iterdir())
        assert "convergence_summary.json" in files
        assert "convergence_p40_t0.05.csv" in files
        text = (tmp_path / "convergence_p40_t0.05.csv").read_text().splitlines()
        assert text[0] == "bin_left,bin_right,count_empirical,count_limit"
        assert len(text) == 51
        counts = np.array([[int(c) for c in line.split(",")[2:]] for line in text[1:]])
        assert counts.sum(axis=0).tolist() == [50, 50]
        edges = np.linspace(0.0, 1.0, 51)
        lefts = [float(line.split(",")[0]) for line in text[1:]]
        rights = [float(line.split(",")[1]) for line in text[1:]]
        assert lefts == edges[:-1].tolist()
        assert rights == edges[1:].tolist()


    def test_limits_match_one_threshold_runs(self):
        # Every threshold's limit values come from one sweep of the shared draws.
        setup = dict(scenario=Scenario(kind="two_factor", p=40, n=30, p1=4), p_grid=(40,), n_reps=50, seed=4)
        swept = run_convergence(t_grid=(0.1, 0.01, 0.05), **setup)["ks"]
        for t in (0.1, 0.01, 0.05):
            assert swept[repr(t)] == run_convergence(t_grid=(t,), **setup)["ks"][repr(t)]


class TestFileReaders:
    def test_matrix_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "sigma.csv"
        path.write_text("1.0,0.5\n0.5,oops\n")
        with pytest.raises(ValueError, match=r"sigma\.csv:2"):
            read_matrix_csv(path)

    def test_matrix_ragged_rows(self, tmp_path):
        path = tmp_path / "sigma.csv"
        path.write_text("1.0,0.5\n0.5\n")
        with pytest.raises(ValueError, match=":2"):
            read_matrix_csv(path)

    def test_vector_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0.1\nbad\n")
        with pytest.raises(ValueError, match=r"z\.csv:2"):
            read_vector_csv(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "rag.csv"
        path.write_text("\n1.0,0.5\n0.5\n")
        with pytest.raises(ValueError, match=r"rag\.csv:3: expected 2 columns, found 1"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cells_rejected(self, tmp_path, cell):
        z_path = tmp_path / "z.csv"
        z_path.write_text(f"0.1\n\n{cell}\n")
        with pytest.raises(ValueError, match=r"z\.csv:3: non-finite"):
            read_vector_csv(z_path)
        sigma_path = tmp_path / "sigma.csv"
        sigma_path.write_text(f"1.0,0.5\n0.5,{cell}\n")
        with pytest.raises(ValueError, match=r"sigma\.csv:2: non-finite"):
            read_matrix_csv(sigma_path)

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "sigma.csv"
        path.write_text("1.0,0.5\n0.5,nan\n0.5,1.0\n0.5,oops\n")
        with pytest.raises(ValueError, match=r"sigma\.csv:2: non-finite"):
            read_matrix_csv(path)

    def test_cells_parse_as_python_floats(self, tmp_path):
        cells = ["1_0", "-2.5e-3", "+.5", "7.", "1e-320", "-0"]
        z_path = tmp_path / "z.csv"
        z_path.write_text("\n".join(cells) + "\n")
        np.testing.assert_array_equal(read_vector_csv(z_path), [float(cell) for cell in cells])
        sigma_path = tmp_path / "sigma.csv"
        sigma_path.write_text(" 1 , 5e-1\n+.5,1_0e-1\n")
        np.testing.assert_array_equal(read_matrix_csv(sigma_path).entries, [[1.0, 0.5], [0.5, 1.0]])

    def test_matrix_read_holds_about_two_copies(self, tmp_path):
        p = 300
        entries = equal_correlation(p, 0.3).entries
        path = tmp_path / "sigma.csv"
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in entries) + "\n")
        tracemalloc.start()
        try:
            loaded = read_matrix_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.entries, entries)
        assert peak < 3 * entries.nbytes

    def test_non_square_matrix_names_the_file(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1.0,0.5,0.2\n0.5,1.0,0.1\n")
        with pytest.raises(ValueError, match=r"wide\.csv: expected a square matrix"):
            read_matrix_csv(path)

    def test_vector_rejects_several_columns(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0.1\n0.2,0.3\n")
        with pytest.raises(ValueError, match=r"z\.csv:2: expected 1 columns, found 2"):
            read_vector_csv(path)

    def test_round_trip_files(self, tmp_path):
        sigma = equal_correlation(4, 0.25)
        matrix_path = tmp_path / "sigma.csv"
        matrix_path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in sigma.entries) + "\n"
        )
        loaded = read_matrix_csv(matrix_path)
        np.testing.assert_array_equal(loaded.entries, sigma.entries)

"""Artifact formats, configuration round-trips, and the command line."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from phaseuq import (
    CampaignConfig,
    ConfigError,
    EvalEngine,
    KernelParams,
    ModelSpec,
    ModelStats,
    SimParams,
    allocate,
    desk_config,
    enumerate_feasible_subsets,
    mc_estimate,
    reference_config,
    replicate_stream,
    run_mse_study,
)
from phaseuq.artifacts import (
    parse_subset_label,
    plan_from_dict,
    plan_to_dict,
    read_field_csv,
    read_plan_json,
    read_stats_csv,
    read_subsets_csv,
    read_validation_json,
    run_id,
    subset_label,
    write_field_csv,
    write_plan_json,
    write_stats_csv,
    write_subsets_csv,
    write_validation_json,
)
from phaseuq.campaign import ValidationResult
from phaseuq.cli import main


class TestStatsCsv:
    def test_round_trip_bit_exact(self, tmp_path, table_stats):
        path = tmp_path / "stats.csv"
        write_stats_csv(path, table_stats)
        back = read_stats_csv(path)
        assert back.ids == table_stats.ids
        np.testing.assert_array_equal(back.rho, table_stats.rho)
        np.testing.assert_array_equal(back.cost, table_stats.cost)
        np.testing.assert_array_equal(back.sigma, table_stats.sigma)
        np.testing.assert_array_equal(back.h, table_stats.h)
        np.testing.assert_array_equal(back.delta, table_stats.delta)

    def test_round_trip_scaled_costs(self, tmp_path):
        # dyadic cost ratios survive the ratio*c1 reconstruction exactly
        stats = ModelStats(
            ids=(1, 2, 3),
            rho=np.array([1.0, 0.99, 0.9]),
            cost=np.array([2.5, 0.625, 0.3125]),
            sigma=np.array([1.0, 1.0, 1.0]),
        )
        path = tmp_path / "stats.csv"
        write_stats_csv(path, stats)
        back = read_stats_csv(path)
        np.testing.assert_array_equal(back.cost, stats.cost)

    def test_optional_columns_absent(self, tmp_path):
        stats = ModelStats(
            ids=(1, 2),
            rho=np.array([1.0, 0.9]),
            cost=np.array([1.0, 0.5]),
            sigma=np.array([1.0, 1.0]),
        )
        path = tmp_path / "stats.csv"
        write_stats_csv(path, stats)
        back = read_stats_csv(path)
        assert back.h is None
        assert back.delta is None

    def test_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            read_stats_csv(tmp_path / "nope.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("model,h,delta,rho,cost_ratio,sigma\n")
        with pytest.raises(ConfigError):
            read_stats_csv(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text("# c1_seconds=1.0\nmodel,h,delta,rho,cost_ratio,sigma\n")
        with pytest.raises(ConfigError):
            read_stats_csv(empty)


class TestSubsetsCsv:
    def test_round_trip(self, tmp_path, table_stats):
        candidates = enumerate_feasible_subsets(table_stats)
        path = tmp_path / "subsets.csv"
        write_subsets_csv(path, candidates, table_stats.c1)
        rows = read_subsets_csv(path)
        assert len(rows) == 131
        assert [r["rank"] for r in rows] == list(range(1, 132))
        assert rows[0]["model_ids"] == (1, 2, 3, 9)
        for row, cand in zip(rows, candidates):
            assert row["model_ids"] == cand.model_ids
            assert row["v_ratio"] == cand.v_ratio  # repr round-trip
        cheapest = min(rows, key=lambda r: r["b_min_rank"])
        assert cheapest["model_ids"] == (1, 9)
        assert cheapest["b_min_rank"] == 1

    def test_subset_labels(self):
        assert subset_label((1, 3, 9)) == "1+3+9"
        assert parse_subset_label("1+3+9") == (1, 3, 9)
        with pytest.raises(ConfigError):
            parse_subset_label("1+x")


class TestPlanJson:
    def test_round_trip(self, tmp_path, table_stats):
        plan = allocate(table_stats, (1, 2, 3, 9), 2000.0)
        path = tmp_path / "plan.json"
        write_plan_json(path, plan)
        back = read_plan_json(path)
        assert back.model_ids == plan.model_ids
        np.testing.assert_array_equal(back.alpha, plan.alpha)
        np.testing.assert_array_equal(back.ratios, plan.ratios)
        np.testing.assert_array_equal(back.samples, plan.samples)
        assert back.budget == plan.budget
        assert back.predicted_cost == plan.predicted_cost
        assert back.below_minimum == plan.below_minimum

    def test_dict_validation(self, table_stats):
        plan = allocate(table_stats, (1, 9), 100.0)
        data = plan_to_dict(plan)
        data["surprise"] = 1
        with pytest.raises(ConfigError):
            plan_from_dict(data)
        incomplete = plan_to_dict(plan)
        del incomplete["alpha"]
        with pytest.raises(ConfigError):
            plan_from_dict(incomplete)


class TestValidationJson:
    def test_round_trip(self, tmp_path):
        result = ValidationResult(value=0.123456789, n_samples=77, cost_seconds=3.25)
        path = tmp_path / "validation.json"
        write_validation_json(path, result)
        assert read_validation_json(path) == result

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "validation.json"
        path.write_text('{"value": 0.5, "n_samples": 3, "cost_seconds": 1.0, "x": 1}')
        with pytest.raises(ConfigError):
            read_validation_json(path)
        with pytest.raises(ConfigError):
            read_validation_json(tmp_path / "missing.json")


class TestFieldCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        field = rng.uniform(-1.0, 1.0, size=(9, 9))
        path = tmp_path / "u.csv"
        write_field_csv(path, field)
        np.testing.assert_array_equal(read_field_csv(path), field)


class TestRunId:
    def test_deterministic_and_distinct(self, micro_config):
        a = run_id("pilot", micro_config)
        assert a == run_id("pilot", micro_config)
        assert a.startswith("pilot-")
        assert a != run_id("validate", micro_config)
        other = replace(micro_config, master_seed=12)
        assert a != run_id("pilot", other)


def positive(high=10.0):
    return hst.floats(1e-6, high)


@hst.composite
def campaign_configs(draw):
    """Valid configs over every field, models in any order."""
    surrogate_ids = draw(hst.lists(hst.integers(2, 99), unique=True, max_size=4))
    models = [
        ModelSpec(
            model_id=i,
            n_interior=draw(hst.integers(1, 256)),
            delta=draw(positive(1.0)),
            label=draw(hst.text(max_size=6)),
        )
        for i in (1, *surrogate_ids)
    ]
    delta_hf = draw(positive(1.0))
    dt = draw(positive(1.0))
    return CampaignConfig(
        master_seed=draw(hst.integers(0, 2**64)),
        models=tuple(draw(hst.permutations(models))),
        kernel=KernelParams(
            eps2=draw(positive()), delta_hf=delta_hf, delta=delta_hf, c_f=draw(positive())
        ),
        sim=SimParams(
            beta1=draw(hst.floats(0.1, 10.0)),
            beta2=draw(hst.floats(0.0, 10.0)),
            dt=dt,
            t_final=draw(hst.integers(0, 200)) * dt,
            solver_tol=draw(positive(1.0)),
            max_sweeps=draw(hst.integers(1, 1000)),
            active_set_c=draw(positive()),
            interaction_fill=draw(hst.sampled_from(("initial", "plus-one"))),
        ),
        pilot_samples=draw(hst.integers(2, 10**5)),
        replicates=draw(hst.integers(1, 10**3)),
        budgets=tuple(draw(hst.lists(positive(1e6), max_size=5))),
        cases=tuple(draw(hst.lists(hst.text(max_size=12), max_size=4))),
        validation_samples=draw(hst.integers(1, 10**6)),
        workers=draw(hst.integers(1, 64)),
    )


class TestConfigJson:
    def test_round_trip(self, micro_config):
        for config in (micro_config, desk_config()):
            assert CampaignConfig.from_json(config.to_json()) == config

    @settings(max_examples=100, deadline=None)
    @given(config=campaign_configs())
    def test_round_trip_generated(self, config):
        text = config.to_json()
        back = CampaignConfig.from_json(text)
        assert back == config
        assert back.to_json() == text

    def test_run_ids_pinned(self, micro_config):
        # run directories are named by a hash of the config JSON, so its
        # bytes may change only with a deliberate config version bump
        assert run_id("pilot", desk_config()) == "pilot-74bd498804a2"
        assert run_id("pilot", reference_config()) == "pilot-72b80d1ff462"
        assert run_id("pilot", micro_config) == "pilot-1f679cbeea38"

    def test_family_kernel_untruncated(self, micro_config):
        # kernel.delta is not written to JSON, so a truncated family kernel
        # could not survive its own round trip
        with pytest.raises(ConfigError):
            replace(micro_config, kernel=KernelParams(delta=0.125, delta_hf=0.25))
        data = json.loads(micro_config.to_json())
        data["kernel"]["delta"] = 0.25
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(data)

    def test_errors(self, micro_config):
        base = micro_config.to_dict()

        data = dict(base, extra=1)
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(data)

        data = dict(base, version=99)
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(data)

        data = dict(base)
        del data["models"]
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(data)

        data = json.loads(json.dumps(base))
        data["models"][0]["weird"] = 1
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(data)

        data = json.loads(json.dumps(base))
        data["sim"]["weird"] = 1
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(data)

        with pytest.raises(ConfigError):
            CampaignConfig.from_json("not json {")

    def test_semantic_validation(self, micro_config):
        with pytest.raises(ConfigError):
            replace(micro_config, models=())
        with pytest.raises(ConfigError):
            replace(micro_config, models=micro_config.models[1:])  # no hf model
        with pytest.raises(ConfigError):
            replace(micro_config, pilot_samples=1)
        with pytest.raises(ConfigError):
            replace(micro_config, budgets=(1.0, -2.0))
        with pytest.raises(ConfigError):
            replace(micro_config, workers=0)


class TestMseStudy:
    def test_mc_rows_are_one_model_plans(self, micro_config):
        stats = ModelStats(
            ids=(1, 2, 3),
            rho=np.array([1.0, 0.99, 0.9]),
            cost=np.array([0.3, 0.05, 0.01]),
            sigma=np.array([0.02, 0.019, 0.018]),
        )
        with EvalEngine(micro_config) as engine:
            study = run_mse_study(engine, stats, reference=0.5)
            assert [row.case for row in study.rows] == ["min-V", "min-V", "mc", "mc"]
            for row in study.rows[2:]:
                n = int(row.budget / stats.c1 + 1e-9)
                assert row.model_ids == (1,)
                assert row.samples == (n,)
                assert not row.below_minimum
                assert row.theoretical_mse == stats.sigma1**2 * stats.c1 / row.budget
                assert row.plan_mse == stats.sigma1**2 / n
                for rep, estimate in enumerate(row.estimates):
                    tag = replicate_stream(micro_config.master_seed, rep).tag
                    assert estimate == mc_estimate(engine.evaluate(1, tag, n)[0])


class TestEvalEngine:
    def test_cache_reuse_and_prefix_consistency(self, micro_config):
        with EvalEngine(micro_config) as engine:
            first, _ = engine.evaluate(3, "pilot", 4)
            extended, _ = engine.evaluate(3, "pilot", 6)
            np.testing.assert_array_equal(extended[:4], first)
            again, _ = engine.evaluate(3, "pilot", 4)
            np.testing.assert_array_equal(again, first)

    def test_workers_match_serial(self, micro_config):
        with EvalEngine(micro_config) as serial:
            expected, _ = serial.evaluate(3, "pilot", 4)
        with EvalEngine(replace(micro_config, workers=2)) as parallel:
            got, _ = parallel.evaluate(3, "pilot", 4)
        np.testing.assert_array_equal(got, expected)


def _find_artifact(out_dir, command, name):
    matches = sorted(out_dir.glob(f"{command}-*/{name}"))
    assert matches, f"no {name} under {out_dir}/{command}-*"
    return matches[-1]


class TestCliPipeline:
    def test_full_pipeline(self, tmp_path, micro_config):
        cfg = tmp_path / "micro.json"
        cfg.write_text(micro_config.to_json())
        out = tmp_path / "out"

        assert main(["pilot", "--config", str(cfg), "--out", str(out)]) == 0
        stats_path = _find_artifact(out, "pilot", "stats.csv")
        stats = read_stats_csv(stats_path)
        assert stats.ids == (1, 2, 3)
        assert stats.rho[0] == 1.0

        assert main(["subsets", "--stats", str(stats_path), "--out", str(out)]) == 0
        rows = read_subsets_csv(out / "subsets.csv")
        assert rows and rows[0]["rank"] == 1

        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        validation_path = _find_artifact(out, "validate", "validation.json")
        reference = read_validation_json(validation_path)
        assert reference.n_samples == micro_config.validation_samples
        assert 0.0 <= reference.value <= 1.0

        assert (
            main(
                [
                    "estimate",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--stats",
                    str(stats_path),
                    "--budget",
                    "1.0",
                    "--subset",
                    "min-V",
                    "--allow-below-min",
                ]
            )
            == 0
        )
        estimate_path = _find_artifact(out, "estimate", "estimate.json")
        estimate = json.loads(estimate_path.read_text())
        assert 0.0 <= estimate["value"] <= 1.0
        assert estimate["realized_cost_seconds"] > 0.0
        plan = plan_from_dict(estimate["plan"])
        assert plan.model_ids[0] == 1

        assert (
            main(
                [
                    "mse-study",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--stats",
                    str(stats_path),
                    "--validation",
                    str(validation_path),
                ]
            )
            == 0
        )
        study_path = _find_artifact(out, "mse-study", "mse_study.json")
        study = json.loads(study_path.read_text())
        # one configured case plus the mc baseline, at two budgets each
        assert len(study["rows"]) == 4
        cases = {row["case"] for row in study["rows"]}
        assert cases == {"min-V", "mc"}
        for row in study["rows"]:
            assert len(row["estimates"]) == micro_config.replicates
            assert row["empirical_mse"] >= 0.0

        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--model",
                    "3",
                    "--theta-index",
                    "0",
                ]
            )
            == 0
        )
        field_path = _find_artifact(out, "simulate-m3", "u_t0000.csv")
        field = read_field_csv(field_path)
        # n=6 interior cells -> 7 solution nodes plus a 2-layer collar each side
        assert field.shape == (11, 11)
        assert np.all(np.abs(field) <= 1.0 + 1e-12)
        summary = json.loads((field_path.parent / "summary.json").read_text())
        n_steps = micro_config.sim.n_steps
        assert len(summary["times"]) == n_steps + 1
        assert len(summary["mass_fraction"]) == n_steps + 1

    def test_estimate_is_deterministic(self, tmp_path, micro_config):
        # with a fixed statistics table the whole estimate is reproducible;
        # only the realized wall-clock cost may differ between runs
        cfg = tmp_path / "micro.json"
        cfg.write_text(micro_config.to_json())
        shared = tmp_path / "shared"
        assert main(["pilot", "--config", str(cfg), "--out", str(shared)]) == 0
        stats_path = _find_artifact(shared, "pilot", "stats.csv")
        estimates = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert (
                main(
                    [
                        "estimate",
                        "--config",
                        str(cfg),
                        "--out",
                        str(out),
                        "--stats",
                        str(stats_path),
                        "--budget",
                        "1.0",
                        "--subset",
                        "ids:1+3",
                        "--allow-below-min",
                    ]
                )
                == 0
            )
            estimates.append(
                json.loads(_find_artifact(out, "estimate", "estimate.json").read_text())
            )
        assert estimates[0]["value"] == estimates[1]["value"]
        assert estimates[0]["plan"]["samples"] == estimates[1]["plan"]["samples"]
        assert estimates[0]["level_terms"] == estimates[1]["level_terms"]

    def test_pilot_statistics_deterministic(self, tmp_path, micro_config):
        cfg = tmp_path / "micro.json"
        cfg.write_text(micro_config.to_json())
        parsed = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["pilot", "--config", str(cfg), "--out", str(out)]) == 0
            parsed.append(read_stats_csv(_find_artifact(out, "pilot", "stats.csv")))
        np.testing.assert_array_equal(parsed[0].rho, parsed[1].rho)
        np.testing.assert_array_equal(parsed[0].sigma, parsed[1].sigma)


class TestCliExitCodes:
    def test_config_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"models": [{"id": 1, "n": 8, "delta": 0.25}], "bogus": 1}')
        assert main(["pilot", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

        assert (
            main(["pilot", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
            == 2
        )

        assert (
            main(["subsets", "--stats", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
            == 2
        )

    def test_bad_theta_file_exits_2(self, tmp_path, micro_config, capsys):
        cfg = tmp_path / "micro.json"
        cfg.write_text(micro_config.to_json())
        not_json = tmp_path / "theta.txt"
        not_json.write_text("mu = 0.95")
        not_object = tmp_path / "theta.json"
        not_object.write_text("[0.95, 0.95, 0.95, 0.95]")
        not_numbers = tmp_path / "words.json"
        not_numbers.write_text('{"mu": "deep", "eta": "shifted"}')
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path), "--model", "3"]
        for path in (tmp_path / "absent.json", not_json, not_object, not_numbers):
            assert main(argv + ["--theta-file", str(path)]) == 2
            assert "error:" in capsys.readouterr().err

    def test_bad_budget_list_exits_2(self, tmp_path, micro_config):
        cfg = tmp_path / "micro.json"
        cfg.write_text(micro_config.to_json())
        out = tmp_path / "out"
        assert main(["pilot", "--config", str(cfg), "--out", str(out)]) == 0
        stats_path = _find_artifact(out, "pilot", "stats.csv")
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        validation_path = _find_artifact(out, "validate", "validation.json")
        assert (
            main(
                [
                    "mse-study",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--stats",
                    str(stats_path),
                    "--validation",
                    str(validation_path),
                    "--budgets",
                    "5,abc",
                ]
            )
            == 2
        )

    def test_insufficient_budget_exits_3(self, tmp_path, micro_config, capsys):
        cfg = tmp_path / "micro.json"
        cfg.write_text(micro_config.to_json())
        out = tmp_path / "out"
        assert main(["pilot", "--config", str(cfg), "--out", str(out)]) == 0
        stats_path = _find_artifact(out, "pilot", "stats.csv")
        argv = [
            "estimate",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--stats",
            str(stats_path),
            "--budget",
            "1e-6",
            "--subset",
            "ids:1+2+3",
        ]
        assert main(argv) == 3
        assert main(argv + ["--allow-below-min"]) == 3
        capsys.readouterr()

    def test_convergence_failure_exits_4(self, tmp_path, micro_config, capsys):
        strict = replace(micro_config, sim=replace(micro_config.sim, solver_tol=1e-300))
        cfg = tmp_path / "strict.json"
        cfg.write_text(strict.to_json())
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(cfg),
                    "--out",
                    str(tmp_path),
                    "--model",
                    "1",
                ]
            )
            == 4
        )
        assert "error:" in capsys.readouterr().err

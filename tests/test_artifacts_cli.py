"""Artifact formats, configuration round-trips, and the command line."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as hst

from phaseuq import (
    AllocationPlan,
    CampaignConfig,
    ConfigError,
    EstimationResult,
    EvalEngine,
    KernelParams,
    ModelSpec,
    ModelStats,
    PilotResult,
    SimParams,
    StudyResult,
    StudyRow,
    ValidationResult,
    allocate,
    desk_config,
    enumerate_feasible_subsets,
    evaluate_model,
    mc_estimate,
    mfmc_estimate,
    pilot_stream,
    reference_config,
    replicate_stream,
    run_mse_study,
)
from phaseuq import campaign, solver
from phaseuq.artifacts import (
    decode,
    parse_subset_label,
    read_field_csv,
    read_json,
    read_stats_csv,
    read_subsets_csv,
    run_id,
    subset_label,
    write_field_csv,
    write_json,
    write_pilot_json,
    write_stats_csv,
    write_study_csv,
    write_subsets_csv,
)
from phaseuq.cli import main


def _write(path, text):
    path.write_text(text)
    return path


_GOOD_STATS = "# c1_seconds=0.5\nmodel,h,delta,rho,cost_ratio,sigma\n1,,,1.0,1.0,0.25\n"

#: Malformed statistics files: name -> (text, the column its error names).
_MALFORMED_STATS = {
    "cell.csv": (_GOOD_STATS.replace("0.25", "abc"), "sigma"),
    "c1.csv": (_GOOD_STATS.replace("=0.5", "=fast"), "c1_seconds"),
    "column.csv": (
        _GOOD_STATS.replace(",cost_ratio", "").replace(",1.0,0.25", ",0.25"),
        "cost_ratio",
    ),
}

#: Statistics files with non-finite numbers: name -> (text, the field its error names).
_NON_FINITE_STATS = {
    "rho-nan.csv": (_GOOD_STATS + "2,,,nan,0.5,0.25\n", "rho"),
    "sigma-nan.csv": (_GOOD_STATS.replace("0.25", "nan"), "sigma"),
    "cost-inf.csv": (_GOOD_STATS + "2,,,0.9,inf,0.25\n", "cost"),
    "c1-inf.csv": (_GOOD_STATS.replace("=0.5", "=inf"), "cost"),
}


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
        # malformed cells and columns name the file and the column
        assert read_stats_csv(_write(tmp_path / "good.csv", _GOOD_STATS)).c1 == 0.5
        for name, (text, column) in _MALFORMED_STATS.items():
            with pytest.raises(ConfigError, match=f"{name}: .*{column}"):
                read_stats_csv(_write(tmp_path / name, text))
        for name, (text, field) in _NON_FINITE_STATS.items():
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                read_stats_csv(_write(tmp_path / name, text))


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
        path = tmp_path / "plan.json"
        for plan in (
            allocate(table_stats, (1, 2, 3, 9), 2000.0),
            allocate(table_stats, (1, 2, 3, 9), 40.0),
        ):
            write_json(path, plan)
            back = read_json(path, AllocationPlan)
            assert back.model_ids == plan.model_ids
            np.testing.assert_array_equal(back.alpha, plan.alpha)
            np.testing.assert_array_equal(back.ratios, plan.ratios)
            np.testing.assert_array_equal(back.samples, plan.samples)
            assert back.budget == plan.budget
            assert back.predicted_cost == plan.predicted_cost
            assert back.below_minimum == plan.below_minimum

    def test_dict_validation(self, tmp_path, table_stats):
        path = tmp_path / "plan.json"
        write_json(path, allocate(table_stats, (1, 9), 100.0))
        plan = json.loads(path.read_text())

        def read(data):
            path.write_text(json.dumps(data))
            return read_json(path, AllocationPlan)

        with pytest.raises(ConfigError):
            read(dict(plan, surprise=1))
        incomplete = dict(plan)
        del incomplete["alpha"]
        with pytest.raises(ConfigError):
            read(incomplete)
        # values of the wrong JSON type are rejected, not coerced
        for key, value in (
            ("below_minimum", "false"),
            ("below_minimum", 0),
            ("subset", [1.9, 2.2]),
            ("subset", [True, 9]),
            ("samples", ["3", 400]),
            ("samples", [3.7, 414.2]),
            ("samples", [10**30, 10**30]),
            ("alpha", [[0.5]]),
            ("budget_seconds", "100.0"),
            ("budget_seconds", True),
        ):
            with pytest.raises(ConfigError, match=key):
                read(dict(plan, **{key: value}))
        # JSON integers are accepted where floats are expected
        back = read(dict(plan, budget_seconds=100))
        assert back.budget == 100.0 and isinstance(back.budget, float)


class TestValidationJson:
    def test_round_trip(self, tmp_path):
        result = ValidationResult(value=0.123456789, n_samples=77, cost_seconds=3.25)
        path = tmp_path / "validation.json"
        write_json(path, result)
        assert read_json(path, ValidationResult) == result

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "validation.json"
        path.write_text('{"value": 0.5, "n_samples": 3, "cost_seconds": 1.0, "x": 1}')
        with pytest.raises(ConfigError):
            read_json(path, ValidationResult)
        with pytest.raises(ConfigError):
            read_json(tmp_path / "missing.json", ValidationResult)


class TestArtifactBytes:
    """The artifact formats, pinned to their bytes: a change to any of them
    must be deliberate."""

    PINNED = {
        "plan_full.json": "9460d764411e3f44c40a07a3ea7af5e88c74e574b484379cc17d55ce21cfebde",
        "plan_below.json": "80868012c9cad9c3915d2c1f3b4c15af3a0589b071e00aae12ee37f38551c9bb",
        "plan_mc.json": "f930d1d5cde78f1fa5d10653f8089d81e2b8a8724067a42691221e9403fbcaf5",
        "estimate_cost.json": "82fa717032cff22ed900bb827fa4dfc9eaf2d3c3513b30a6a65f4c5716d046ef",
        "estimate_none.json": "6bf6b89c580f674910cddc85ee6dda6eb7b3eb8ce5b8c263a4bd82cf671d591a",
        "validation.json": "d6d6150f2430efb2225ea0416e24ba169941d83fdc6c15d3313abf4eec6a1de8",
        "mse_study.json": "2250a9ead7fd9f3d36365ef0bde16116667c1a303bca69ff082358f45d1f4e23",
        "mse_study.csv": "93cefb4c127aea94e18ee22f3b4c871276b2c1fc10ee35a0d1e34c411e35b5f0",
        "stats.csv": "a1b81c2f5c6764859f428d029807058f68f12e34c976a2dd058daaacb37c8e9b",
        "subsets.csv": "d87d599958bb92410ee410fcf0bba84d8865bcb905e9ed4d84457cfcaf4afb91",
        "pilot.json": "f64d1f64385fbc4456b25c3dcbe2716c0d57b7291f700428fb936f24c678c99f",
        "config.json": "b75c60dfb812f92c4a737755f54dc3bb94de95c5d47f4babbf7fd9155c9d12d0",
    }

    @staticmethod
    def _values(plan):
        # dyadic outputs: their sums are exact, so the means do not depend
        # on the summation order
        n = int(plan.samples[-1])
        return {i: (np.arange(n) % 8 + i) / 8.0 for i in plan.model_ids}

    def _json_objects(self, table_stats) -> dict:
        """The dataclass files, by name."""
        full = allocate(table_stats, (1, 9), 40.0)
        below = allocate(table_stats, (1, 2, 3, 9), 40.0)
        mc = allocate(table_stats, (1,), 7.5)
        estimate = mfmc_estimate(full, self._values(full))
        rows = tuple(
            StudyRow(
                case=case,
                model_ids=plan.model_ids,
                budget=plan.budget,
                samples=tuple(int(s) for s in plan.samples),
                below_minimum=plan.below_minimum,
                estimates=(0.5 + k / 16, 0.25 - k / 32, 1 / 3),
                empirical_mse=1e-7 * (k + 1),
                theoretical_mse=2.5e-7 / (k + 1),
                plan_mse=0.1 / 3 * k,
                mean_realized_cost=plan.predicted_cost * 1.0625,
            )
            for k, (case, plan) in enumerate(
                (("min-V", full), ("min-budget", below), ("mc", mc))
            )
        )
        return {
            "plan_full.json": full,
            "plan_below.json": below,
            "plan_mc.json": mc,
            "estimate_cost.json": replace(estimate, realized_cost=39.625),
            "estimate_none.json": mfmc_estimate(mc, self._values(mc)),
            "validation.json": ValidationResult(
                value=0.123456789, n_samples=77, cost_seconds=3.25
            ),
            "mse_study.json": StudyResult(rows=rows, reference=0.3),
            "config.json": desk_config(),
        }

    def test_bytes_pinned(self, tmp_path, table_stats):
        objects = self._json_objects(table_stats)
        for name, obj in objects.items():
            write_json(tmp_path / name, obj)
        write_study_csv(tmp_path / "mse_study.csv", objects["mse_study.json"])
        write_stats_csv(tmp_path / "stats.csv", table_stats)
        write_subsets_csv(
            tmp_path / "subsets.csv", enumerate_feasible_subsets(table_stats), table_stats.c1
        )
        k = np.arange(4.0)
        write_pilot_json(
            tmp_path / "pilot.json",
            PilotResult(
                stats=table_stats,
                values=np.array([(k + i) / 16 for i in range(9)]),
                seconds=np.array([(k + i + 4) / 8 for i in range(9)]),
            ),
        )
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.PINNED
        }
        assert digests == self.PINNED

    def test_json_files_read_back(self, tmp_path, table_stats):
        # every file write_json writes, read_json reads back to the same bytes
        for name, obj in self._json_objects(table_stats).items():
            path = tmp_path / name
            write_json(path, obj)
            text = path.read_text()
            write_json(path, read_json(path, type(obj)))
            assert path.read_text() == text, name


class TestFieldCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        field = rng.uniform(-1.0, 1.0, size=(9, 9))
        path = tmp_path / "u.csv"
        write_field_csv(path, field)
        np.testing.assert_array_equal(read_field_csv(path), field)


def test_missing_csv_files_raise_config_error(tmp_path):
    for read in (read_subsets_csv, read_field_csv):
        with pytest.raises(ConfigError, match="cannot read .*absent.csv"):
            read(tmp_path / "absent.csv")


@pytest.mark.parametrize(
    ("read", "text", "message"),
    [
        (read_subsets_csv, "rank,subset,Bmin_over_C1,Bmin_rank\n1,1+2,0.5,1\n",
         r"missing columns \['V'\]"),
        (read_subsets_csv, "rank,subset,V,Bmin_over_C1,Bmin_rank\n1,1+2,0.5\n",
         "Bmin_over_C1 must be a number, got None"),
        (read_subsets_csv, "rank,subset,V,Bmin_over_C1,Bmin_rank\n1,1+x,0.5,2.0,1\n",
         "cannot parse subset label '1\\+x'"),
        (read_subsets_csv, "rank,subset,V,Bmin_over_C1,Bmin_rank\n1.5,1+2,0.5,2.0,1\n",
         "rank must be a number, got '1.5'"),
        (read_field_csv, "0.5,0.25\n0.75\n", "not a table of numbers"),
        (read_field_csv, "0.5,abc\n", "not a table of numbers"),
        (read_field_csv, "0.5,nan\n", "non-finite"),
    ],
)
def test_malformed_csv_files_raise_config_error(tmp_path, read, text, message):
    path = tmp_path / "bad.csv"
    _write(path, text)
    with pytest.raises(ConfigError, match=f"bad.csv.*{message}"):
        read(path)


class TestRunId:
    def test_deterministic_and_distinct(self, micro_config):
        a = run_id("pilot", micro_config)
        assert a == run_id("pilot", micro_config)
        assert a.startswith("pilot-")
        assert a != run_id("validate", micro_config)
        other = replace(micro_config, master_seed=12)
        assert a != run_id("pilot", other)


def real(low, high):
    """A float in ``[low, high]`` or an int there: a float setting built in
    Python may hold an int, which must hash like its JSON form."""
    return hst.floats(low, high) | hst.integers(math.ceil(low), math.floor(high))


def positive(high=10.0):
    return real(1e-6, high)


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
            beta1=draw(real(0.1, 10.0)),
            beta2=draw(real(0.0, 10.0)),
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


def _config(data) -> CampaignConfig:
    """The configuration held by a JSON value, as ``--config`` reads it."""
    return decode(CampaignConfig, data, "config")


class TestConfigJson:
    def test_round_trip(self, tmp_path, micro_config):
        for config in (micro_config, desk_config()):
            write_json(tmp_path / "config.json", config)
            assert read_json(tmp_path / "config.json", CampaignConfig) == config
            assert (tmp_path / "config.json").read_text() == config.to_json() + "\n"

    @settings(max_examples=100, deadline=None)
    @given(config=campaign_configs())
    def test_round_trip_generated(self, config):
        text = config.to_json()
        back = _config(json.loads(text))
        assert back == config
        assert back.to_json() == text
        assert run_id("pilot", back) == run_id("pilot", config)

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
            _config(data)

    def test_errors(self, tmp_path, micro_config):
        base = json.loads(micro_config.to_json())

        data = dict(base, extra=1)
        with pytest.raises(ConfigError):
            _config(data)

        data = dict(base, version=99)
        with pytest.raises(ConfigError, match="unsupported config version 99"):
            _config(data)

        # a file without a version is read as the current one
        data = dict(base)
        del data["version"]
        assert _config(data) == micro_config

        data = dict(base)
        del data["models"]
        with pytest.raises(ConfigError):
            _config(data)

        data = json.loads(json.dumps(base))
        data["models"][0]["weird"] = 1
        with pytest.raises(ConfigError):
            _config(data)

        data = json.loads(json.dumps(base))
        data["sim"]["weird"] = 1
        with pytest.raises(ConfigError):
            _config(data)

        with pytest.raises(ConfigError, match="not valid JSON"):
            read_json(_write(tmp_path / "bad.json", "not json {"), CampaignConfig)

        # scalars must have their own JSON type; a bool is never a number
        for section, key, value in (
            (None, "pilot_samples", "50"),
            (None, "pilot_samples", 2.9),
            (None, "master_seed", True),
            (None, "cases", [5]),
            (None, "budgets", ["5"]),
            (None, "budgets", [True]),
            ("sim", "beta1", True),
            ("sim", "max_sweeps", 10.0),
            ("sim", "interaction_fill", 1),
            ("kernel", "eps2", "0.1"),
            ("kernel", "eps2", 10**400),
        ):
            data = json.loads(json.dumps(base))
            (data if section is None else data[section])[key] = value
            with pytest.raises(ConfigError, match=key):
                _config(data)
        for model_key, value in (("n", 8.7), ("id", "1"), ("delta", None), ("label", 5)):
            data = json.loads(json.dumps(base))
            data["models"][0][model_key] = value
            with pytest.raises(ConfigError, match=model_key):
                _config(data)
        # NaN and Infinity, JSON extensions that Python reads, are rejected
        for section, key, value in (
            (None, "budgets", [float("nan")]),
            (None, "budgets", [float("inf")]),
            ("sim", "dt", float("nan")),
            ("sim", "beta1", float("inf")),
            ("sim", "t_final", float("nan")),
            ("sim", "t_final", float("inf")),
            ("kernel", "eps2", float("nan")),
            ("kernel", "delta_hf", float("inf")),
        ):
            data = json.loads(json.dumps(base))
            (data if section is None else data[section])[key] = value
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                _config(json.loads(json.dumps(data)))
        # integer budgets are JSON integers where floats are expected
        data = dict(base, budgets=[5, 10])
        assert _config(data).budgets == (5.0, 10.0)

    def test_semantic_validation(self, micro_config, junk_floats, junk_ints):
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
        # integer fields refuse a bool or a float and hold a numpy integer as
        # the equal int, so the JSON form does not change
        for name in ("pilot_samples", "replicates", "validation_samples", "workers"):
            value = getattr(micro_config, name)
            for bad in (float(value), value + 0.5, True, *junk_ints):
                with pytest.raises(ConfigError, match=f"{name} must be an int"):
                    replace(micro_config, **{name: bad})
            held = replace(micro_config, **{name: np.int64(value)})
            assert type(getattr(held, name)) is int
            assert held.to_json() == micro_config.to_json()
        for bad in junk_floats:
            with pytest.raises(ConfigError, match="budgets"):
                replace(micro_config, budgets=(1.0, bad))
        # integer budgets are held as floats, so the config hashes like its JSON form
        held = replace(micro_config, budgets=(1, 2))
        assert held.to_json() == replace(micro_config, budgets=(1.0, 2.0)).to_json()

    def test_master_seed_is_an_integer(self, micro_config):
        # a numpy integer is held as the equal int, so the JSON form and the
        # run ids do not change; a bool or a float is not a seed
        seeded = replace(micro_config, master_seed=np.int64(micro_config.master_seed))
        assert type(seeded.master_seed) is int
        assert seeded.to_json() == micro_config.to_json()
        assert run_id("pilot", seeded) == run_id("pilot", micro_config)
        for seed in (True, np.bool_(False), 11.0, "11", None):
            with pytest.raises(ConfigError, match="master_seed must be an int"):
                replace(micro_config, master_seed=seed)


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_prefetch_matches_per_call_evaluate(self, micro_config, workers):
        rep = replicate_stream(micro_config.master_seed, 0).tag
        requests = [(3, "pilot", 4), (3, "pilot", 6), (1, rep, 2), (2, "pilot", 3), (3, "pilot", 2)]
        with EvalEngine(micro_config) as fresh:
            expected = [fresh.evaluate(*request) for request in requests]
        with EvalEngine(replace(micro_config, workers=workers)) as engine:
            engine.prefetch(requests)
            for request, (values, _) in zip(requests, expected):
                got, seconds = engine.evaluate(*request)
                np.testing.assert_array_equal(got, values)
                assert seconds.shape == values.shape

    def test_study_computes_exactly_its_rows(self, micro_config, monkeypatch):
        calls = []
        evaluate_task = campaign._evaluate_task

        def counted(payload):
            calls.append(payload)
            return evaluate_task(payload)

        monkeypatch.setattr(campaign, "_evaluate_task", counted)
        stats = ModelStats(
            ids=(1, 2, 3),
            rho=np.array([1.0, 0.99, 0.9]),
            cost=np.array([0.3, 0.05, 0.01]),
            sigma=np.array([0.02, 0.019, 0.018]),
        )
        config = replace(micro_config, cases=("min-V", "ids:1+3"), budgets=(0.5, 1.0, 2.0))
        with EvalEngine(config) as engine:
            study = run_mse_study(engine, stats, reference=0.5)
            used = {
                (model_id, replicate_stream(config.master_seed, rep).tag, i)
                for row in study.rows
                for rep in range(config.replicates)
                for model_id, count in zip(row.model_ids, row.samples)
                for i in range(count)
            }
            assert set(engine._cache) == used
        assert len(calls) == len(used)


def scipy_blas_threads() -> int:
    """The thread count of the OpenBLAS bundled with scipy, in this process."""
    (path,) = (Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas-*.so")
    get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


class TestBlasThreads:
    def test_pool_workers_run_one_blas_thread(self, micro_config):
        with EvalEngine(replace(micro_config, workers=2)) as engine:
            counts = [engine._executor().submit(scipy_blas_threads) for _ in range(4)]
            assert [count.result(timeout=60) for count in counts] == [1] * 4

    def test_evaluations_do_not_depend_on_blas_threads(self):
        # desk-campaign's exact check compares pinned pool workers with the
        # unpinned driving process; this is the property it rests on.
        config = desk_config()
        stream = pilot_stream(config.master_seed)
        controls = campaign._openblas_thread_controls()
        assert controls
        before = [(set_threads, get()) for get, set_threads in controls]
        values = {}
        try:
            for threads in (1, 2):
                for _, set_threads in controls:
                    set_threads(threads)
                solver._sweep_factorization.cache_clear()
                values[threads] = [
                    evaluate_model(model, stream.theta(i), config.kernel_for(model), config.sim)
                    .value
                    for i in range(2)
                    for model in config.models
                ]
        finally:
            for set_threads, count in before:
                set_threads(count)
        assert len(values[1]) == 18 and values[1] == values[2]

    def test_serial_evaluation_pins_then_restores(self, micro_config, monkeypatch):
        counts = []

        def counted(payload):
            counts.append(scipy_blas_threads())
            return 0.5, 0.0

        monkeypatch.setattr(campaign, "_evaluate_task", counted)
        before = scipy_blas_threads()
        with EvalEngine(micro_config) as engine:
            engine.evaluate(3, "pilot", 2)
        assert counts == [1, 1]
        assert scipy_blas_threads() == before


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
        reference = read_json(validation_path, ValidationResult)
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
        estimate = read_json(estimate_path, EstimationResult)
        assert 0.0 <= estimate.value <= 1.0
        assert estimate.realized_cost > 0.0
        assert estimate.plan.model_ids[0] == 1

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

    def test_theta_file_matches_stream(self, tmp_path, micro_config):
        # a theta file holding a stream's input runs the same simulation
        cfg = tmp_path / "micro.json"
        cfg.write_text(micro_config.to_json())
        theta = tmp_path / "theta.json"
        write_json(theta, pilot_stream(micro_config.master_seed).theta(2))
        argv = ["simulate", "--config", str(cfg), "--model", "3"]
        assert main(argv + ["--out", str(tmp_path / "a"), "--theta-index", "2"]) == 0
        assert main(argv + ["--out", str(tmp_path / "b"), "--theta-file", str(theta)]) == 0
        runs = [sorted((tmp_path / sub).glob("simulate-m3-*/*")) for sub in ("a", "b")]
        assert [p.name for p in runs[0]] == [p.name for p in runs[1]]
        for a, b in zip(*runs):
            assert a.read_bytes() == b.read_bytes()

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
        for name, (text, column) in _MALFORMED_STATS.items():
            path = _write(tmp_path / name, text)
            assert main(["subsets", "--stats", str(path), "--out", str(tmp_path)]) == 2
            assert f"{name}: " in capsys.readouterr().err
        for name, (text, field) in _NON_FINITE_STATS.items():
            path = _write(tmp_path / name, text)
            assert main(["subsets", "--stats", str(path), "--out", str(tmp_path)]) == 2
            assert f"{field} must be finite" in capsys.readouterr().err

        config = json.loads(desk_config().to_json())
        for value in (float("nan"), float("inf")):
            config["sim"]["t_final"] = value
            path = _write(tmp_path / "t_final.json", json.dumps(config))
            assert main(["pilot", "--config", str(path), "--out", str(tmp_path)]) == 2
            assert "t_final must be finite" in capsys.readouterr().err

        # Ill-posed reference models are rejected before any evaluation.
        reference = ["--config", "reference", "--out", str(tmp_path / "reference")]
        assert main(["pilot", *reference]) == 2
        assert "model 5 has an ill-posed time step" in capsys.readouterr().err
        assert main(["simulate", *reference, "--model", "9"]) == 2
        assert "n_interior=64 model with xi=-0.0881 has an ill-posed" in capsys.readouterr().err

        stats = _write(tmp_path / "good.csv", _GOOD_STATS)
        absent = str(tmp_path / "absent")
        study = ["mse-study", "--stats", absent, "--validation", absent, "--out", absent]
        for budgets in ("nan", "5,inf"):
            assert main(study + ["--budgets", budgets]) == 2
            assert "budgets must be positive and finite" in capsys.readouterr().err
        # a two-model subset too, which has a below-minimum regime
        pair = _write(tmp_path / "pair.csv", _GOOD_STATS + "2,,,0.9,0.01,0.25\n")
        for path, subset in ((stats, "ids:1"), (pair, "ids:1+2")):
            estimate = ["estimate", "--stats", str(path), "--subset", subset, "--out", absent]
            for budget in ("inf", "nan", "-inf"):
                assert main(estimate + [f"--budget={budget}"]) == 2
                assert "budget must be finite" in capsys.readouterr().err
            # a count that an int64 cannot hold is refused, naming the budget
            assert main(estimate + ["--budget", "1e30"]) == 2
            assert "budget 1e+30 s asks for" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    @pytest.mark.parametrize("flag", ["--config", "--stats", "--validation", "--theta-file"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, flag, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x81 not text")
        stats = str(_write(tmp_path / "good.csv", _GOOD_STATS))
        argv = {
            "--config": ["validate", "--config", str(path)],
            "--stats": ["subsets", "--stats", str(path)],
            "--validation": ["mse-study", "--stats", stats, "--validation", str(path)],
            "--theta-file": ["simulate", "--model", "3", "--theta-file", str(path)],
        }[flag]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert f"error: cannot read {path}" in capsys.readouterr().err

    def test_bad_theta_file_exits_2(self, tmp_path, micro_config, capsys):
        cfg = tmp_path / "micro.json"
        cfg.write_text(micro_config.to_json())
        mu, eta = [0.95] * 4, [[0.0, 0.0]] * 4
        bad = [
            {"mu": "deep", "eta": "shifted"},
            {"mu": mu, "eta": [[0.0, 0.0, 0.0]] * 4},  # eta shape
            {"mu": mu, "eta": [[0.0, 0.0]] * 3 + [[0.0]]},  # ragged eta
            {"mu": [0.95, 0.95, 0.95, 1.5], "eta": eta},  # mu out of range
            {"mu": mu, "eta": eta, "seed": 1},  # extra key
            {"mu": mu},  # missing key
            {"mu": ["0.95"] * 4, "eta": eta},  # string numbers
            {"mu": [True] * 4, "eta": eta},  # booleans
            {"mu": [float("nan")] * 4, "eta": eta},  # NaN, written as a JSON extension
        ]
        paths = [
            tmp_path / "absent.json",
            _write(tmp_path / "theta.txt", "mu = 0.95"),
            _write(tmp_path / "list.json", json.dumps(mu)),
            *(_write(tmp_path / f"theta{k}.json", json.dumps(d)) for k, d in enumerate(bad)),
        ]
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path), "--model", "3"]
        for path in paths:
            assert main(argv + ["--theta-file", str(path)]) == 2, path.name
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

"""Artifact files: stable CSV/JSON formats and deterministic run directories.

All floats are written in shortest round-trip representation, so re-reading an
artifact reproduces the in-memory values bit for bit.  Run directory names are
content hashes of the configuration, never timestamps: re-running a command
with the same configuration overwrites the same artifacts.

The plan, estimate, validation and study files, and theta files of explicit
inputs, are their dataclasses (``AllocationPlan``, ``EstimationResult``,
``ValidationResult``, ``StudyResult``, ``RandomInputs``) written by
:func:`write_json` and read by :func:`read_json` through the configuration's
codec (:func:`phaseuq.campaign._encode` and ``_decode``): JSON keys are the
field names except where its key table says otherwise, and the reader rejects
unknown or missing keys and values of the wrong JSON type.  ``stats.csv``,
``subsets.csv`` and ``pilot.json`` are written by hand, because they hold
derived columns (cost ratios to ``c1``, ranks) rather than a dataclass's fields.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .campaign import (
    CampaignConfig,
    PilotResult,
    StudyResult,
    StudyRow,
    _decode,
    _encode,
    _json_fields,
)
from .errors import ConfigError
from .mfmc import ModelStats, SubsetCandidate

__all__ = [
    "run_id",
    "write_stats_csv",
    "read_stats_csv",
    "write_subsets_csv",
    "read_subsets_csv",
    "write_json",
    "read_json",
    "write_pilot_json",
    "write_study_csv",
    "write_field_csv",
    "read_field_csv",
]


def _fmt(value: float) -> str:
    return repr(float(value))


def _prepare(path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def run_id(command: str, config: CampaignConfig) -> str:
    """Deterministic run directory name for a command and configuration."""
    digest = hashlib.sha256(config.to_json().encode()).hexdigest()[:12]
    return f"{command}-{digest}"


def subset_label(model_ids: Sequence[int]) -> str:
    return "+".join(str(i) for i in model_ids)


def parse_subset_label(label: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in label.split("+"))
    except ValueError:
        raise ConfigError(f"cannot parse subset label {label!r}") from None


_STATS_HEADER = ["model", "h", "delta", "rho", "cost_ratio", "sigma"]


def write_stats_csv(path: Path, stats: ModelStats) -> None:
    """Pilot statistics table: one row per model, costs relative to the
    high-fidelity cost recorded in the header comment."""
    path = _prepare(path)
    c1 = stats.c1
    with path.open("w", newline="") as fh:
        fh.write(f"# c1_seconds={_fmt(c1)}\n")
        writer = csv.writer(fh)
        writer.writerow(_STATS_HEADER)
        for k, model_id in enumerate(stats.ids):
            h = "" if stats.h is None else _fmt(stats.h[k])
            delta = "" if stats.delta is None else _fmt(stats.delta[k])
            writer.writerow(
                [
                    model_id,
                    h,
                    delta,
                    _fmt(stats.rho[k]),
                    _fmt(stats.cost[k] / c1),
                    _fmt(stats.sigma[k]),
                ]
            )


def read_stats_csv(path: Path) -> ModelStats:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"statistics file {path} does not exist")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# c1_seconds="):
        raise ConfigError(f"{path} is missing the '# c1_seconds=' header")

    def number(text, column, kind=float):
        try:
            return kind(text)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}: {column} must be a number, got {text!r}") from None

    c1 = number(lines[0].split("=", 1)[1], "c1_seconds")
    reader = csv.DictReader(lines[1:])
    missing = [c for c in _STATS_HEADER if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{path}: missing columns {missing}")
    ids, rho, ratio, sigma, h, delta = [], [], [], [], [], []
    for row in reader:
        ids.append(number(row["model"], "model", int))
        rho.append(number(row["rho"], "rho"))
        ratio.append(number(row["cost_ratio"], "cost_ratio"))
        sigma.append(number(row["sigma"], "sigma"))
        h.append(number(row["h"], "h") if row["h"] else np.nan)
        delta.append(number(row["delta"], "delta") if row["delta"] else np.nan)
    if not ids:
        raise ConfigError(f"{path} contains no model rows")
    h_arr = None if np.isnan(h).all() else np.asarray(h)
    d_arr = None if np.isnan(delta).all() else np.asarray(delta)
    return ModelStats(
        ids=tuple(ids),
        rho=np.asarray(rho),
        cost=np.asarray(ratio) * c1,
        sigma=np.asarray(sigma),
        h=h_arr,
        delta=d_arr,
    )


def write_subsets_csv(path: Path, candidates: Sequence[SubsetCandidate], c1: float) -> None:
    """Feasible subsets ranked by variance ratio, with minimum-budget ranks."""
    path = _prepare(path)
    by_budget = sorted(
        range(len(candidates)),
        key=lambda k: (candidates[k].b_min, candidates[k].v_ratio, candidates[k].model_ids),
    )
    budget_rank = {k: r + 1 for r, k in enumerate(by_budget)}
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "subset", "V", "Bmin_over_C1", "Bmin_rank"])
        for k, cand in enumerate(candidates):
            writer.writerow(
                [
                    k + 1,
                    subset_label(cand.model_ids),
                    _fmt(cand.v_ratio),
                    _fmt(cand.b_min / c1),
                    budget_rank[k],
                ]
            )


def read_subsets_csv(path: Path) -> list[dict]:
    path = Path(path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        out.append(
            {
                "rank": int(row["rank"]),
                "model_ids": parse_subset_label(row["subset"]),
                "v_ratio": float(row["V"]),
                "b_min_over_c1": float(row["Bmin_over_C1"]),
                "b_min_rank": int(row["Bmin_rank"]),
            }
        )
    return out


def _dump_json(path: Path, data: dict) -> None:
    path = _prepare(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_json(path: Path, obj) -> None:
    """A dataclass instance as a JSON file of its fields."""
    _dump_json(path, _encode(obj))


_T = TypeVar("_T")


def read_json(path: Path, cls: type[_T]) -> _T:
    """The instance of dataclass ``cls`` held by a JSON file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return _decode(cls, data, str(path))


def write_pilot_json(path: Path, result: PilotResult) -> None:
    """Raw pilot evaluations backing the statistics table (for audit)."""
    _dump_json(
        path,
        {
            "models": list(result.stats.ids),
            "values": [[float(v) for v in row] for row in result.values],
            "seconds": [[float(s) for s in row] for row in result.seconds],
        },
    )


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return subset_label(value)
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return _fmt(value)
    return value


def write_study_csv(path: Path, study: StudyResult) -> None:
    """Error study table: one row per (case, budget), without the replicate
    estimates."""
    path = _prepare(path)
    header = [key for _, key in _json_fields(StudyRow) if key != "estimates"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in map(_encode, study.rows):
            writer.writerow([_csv_cell(row[key]) for key in header])


def write_field_csv(path: Path, padded: np.ndarray) -> None:
    """Field snapshot on the full padded node set, shortest round-trip floats."""
    path = _prepare(path)
    np.savetxt(path, np.asarray(padded, dtype=float), fmt="%.17g", delimiter=",")


def read_field_csv(path: Path) -> np.ndarray:
    return np.loadtxt(Path(path), delimiter=",", ndmin=2)

"""Artifact files: stable CSV/JSON formats and deterministic run directories.

All floats are written in shortest round-trip representation, so re-reading an
artifact reproduces the in-memory values bit for bit.  Run directory names are
content hashes of the configuration, never timestamps: re-running a command
with the same configuration overwrites the same artifacts.

``config.json``, the plan, estimate, validation and study files, and theta
files of explicit inputs are their dataclasses (``CampaignConfig``,
``AllocationPlan``, ``EstimationResult``, ``ValidationResult``,
``StudyResult``, ``RandomInputs``) written by :func:`write_json` and read by
:func:`read_json` through one codec, :func:`encode` and :func:`decode`.  JSON
keys are the field names, except where a field's metadata says otherwise:
``json_key`` renames the field, and ``json_copy_of`` leaves it out of the
file and reads it back as a copy of the named field.  The reader rejects
unknown or missing keys and values of the wrong JSON type.  ``stats.csv``,
``subsets.csv`` and ``pilot.json`` are written by hand, because they hold
derived columns (cost ratios to ``c1``, ranks) rather than a dataclass's
fields.  An input file that is missing, a directory, or not UTF-8 text raises
:class:`ConfigError` naming it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import (
    TYPE_CHECKING,
    Mapping,
    Sequence,
    TypeVar,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np
import numpy.typing as npt

from .errors import ConfigError
from .mfmc import ModelStats, SubsetCandidate

if TYPE_CHECKING:
    from .campaign import CampaignConfig, PilotResult, StudyResult

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

#: JSON values accepted for each scalar type; a bool is never a number.
_JSON_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}

#: Array annotations the codec reads, with the scalar type of their elements.
_JSON_ARRAYS = {np.ndarray: float, npt.NDArray[np.int64]: int}


def json_fields(cls) -> list:
    """The written fields of a dataclass, with their JSON keys."""
    return [
        (f, f.metadata.get("json_key", f.name))
        for f in fields(cls)
        if "json_copy_of" not in f.metadata
    ]


def encode(value):
    """A dataclass, tuple, array or scalar as the JSON value it is written as."""
    if is_dataclass(value):
        return {key: encode(getattr(value, f.name)) for f, key in json_fields(type(value))}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def decode(hint, value, where: str):
    """A JSON value as an instance of the annotated type ``hint``: a
    dataclass, an ``X | None``, a ``tuple[X, ...]``, an array of one of
    ``_JSON_ARRAYS`` from a list or a rectangular nest of lists, or ``bool``,
    ``int``, ``float`` or ``str``, each from its own JSON type; a ``float``
    must be finite."""
    if is_dataclass(hint):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
        written = json_fields(hint)
        unknown = set(value) - {key for _, key in written}
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
        hints = get_type_hints(hint)
        kwargs = {}
        for f, key in written:
            if key in value:
                kwargs[f.name] = decode(hints[f.name], value[key], key)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing key {key!r} in {where}")
        for f in fields(hint):
            source = f.metadata.get("json_copy_of")
            if source is not None:
                kwargs[f.name] = kwargs.get(source, getattr(hint, source))
        return hint(**kwargs)
    if isinstance(hint, UnionType):
        (inner,) = set(get_args(hint)) - {type(None)}
        return None if value is None else decode(inner, value, where)
    if hint in _JSON_ARRAYS:
        if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
            rows = [decode(hint, v, where) for v in value]
            if len({row.shape for row in rows}) > 1:
                raise ConfigError(f"{where} must be a rectangular array, got ragged rows")
            return np.array(rows)
        item = _JSON_ARRAYS[hint]
        try:
            return np.array(decode(tuple[item, ...], value, where), dtype=item)
        except OverflowError:
            raise ConfigError(f"{where} is too large for an array of {item.__name__}") from None
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON list, got {type(value).__name__}")
        return tuple(decode(get_args(hint)[0], item, where) for item in value)
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, _JSON_SCALARS[hint]):
        raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
    try:
        result = hint(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a {hint.__name__}") from None
    if hint is float and not np.isfinite(result):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return result


def _fmt(value: float) -> str:
    return repr(float(value))


def _prepare(path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _read_text(path: Path) -> str:
    """The text of an input file, or a :class:`ConfigError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {path}: it is not UTF-8 text") from None


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
_SUBSETS_HEADER = ["rank", "subset", "V", "Bmin_over_C1", "Bmin_rank"]


def _csv_rows(path: Path, lines: list[str], header: list[str]) -> csv.DictReader:
    """The rows of a CSV file, or a :class:`ConfigError` naming the file if
    it lacks a column of ``header``."""
    reader = csv.DictReader(lines)
    missing = [c for c in header if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{path}: missing columns {missing}")
    return reader


def _number(path: Path, text, column: str, kind=float):
    """``kind(text)``, or a :class:`ConfigError` naming the file and column."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: {column} must be a number, got {text!r}") from None


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
    lines = _read_text(path).splitlines()
    if not lines or not lines[0].startswith("# c1_seconds="):
        raise ConfigError(f"{path} is missing the '# c1_seconds=' header")

    c1 = _number(path, lines[0].split("=", 1)[1], "c1_seconds")
    ids, rho, ratio, sigma, h, delta = [], [], [], [], [], []
    for row in _csv_rows(path, lines[1:], _STATS_HEADER):
        ids.append(_number(path, row["model"], "model", int))
        rho.append(_number(path, row["rho"], "rho"))
        ratio.append(_number(path, row["cost_ratio"], "cost_ratio"))
        sigma.append(_number(path, row["sigma"], "sigma"))
        h.append(_number(path, row["h"], "h") if row["h"] else np.nan)
        delta.append(_number(path, row["delta"], "delta") if row["delta"] else np.nan)
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
        writer.writerow(_SUBSETS_HEADER)
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
    out = []
    for row in _csv_rows(path, _read_text(path).splitlines(), _SUBSETS_HEADER):
        try:
            model_ids = parse_subset_label(row["subset"] or "")
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        out.append(
            {
                "rank": _number(path, row["rank"], "rank", int),
                "model_ids": model_ids,
                "v_ratio": _number(path, row["V"], "V"),
                "b_min_over_c1": _number(path, row["Bmin_over_C1"], "Bmin_over_C1"),
                "b_min_rank": _number(path, row["Bmin_rank"], "Bmin_rank", int),
            }
        )
    return out


def _dump_json(path: Path, data: dict) -> None:
    path = _prepare(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_json(path: Path, obj) -> None:
    """A dataclass instance as a JSON file of its fields."""
    _dump_json(path, encode(obj))


_T = TypeVar("_T")


def read_json(path: Path, cls: type[_T]) -> _T:
    """The instance of dataclass ``cls`` held by a JSON file."""
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return decode(cls, data, str(path))


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
    row_type = get_args(get_type_hints(type(study))["rows"])[0]
    header = [key for _, key in json_fields(row_type) if key != "estimates"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in map(encode, study.rows):
            writer.writerow([_csv_cell(row[key]) for key in header])


def write_field_csv(path: Path, padded: np.ndarray) -> None:
    """Field snapshot on the full padded node set, shortest round-trip floats."""
    path = _prepare(path)
    np.savetxt(path, np.asarray(padded, dtype=float), fmt="%.17g", delimiter=",")


def read_field_csv(path: Path) -> np.ndarray:
    try:
        field = np.loadtxt(_read_text(path).splitlines(), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path} is not a table of numbers: {exc}") from None
    if not np.isfinite(field).all():
        raise ConfigError(f"{path} holds non-finite values")
    return field

"""Deterministic, stream-addressable sampling of the random inputs.

Every random input is addressed by ``(master_seed, stream_tag, index)``: the
triple is hashed to a 128-bit counter-based generator key, so

* the same address always yields the same input, independent of evaluation
  order, process, or batch size (reproducibility and shared/nested samples
  across models),
* different tags give statistically independent streams (pilot, each
  replicate, validation), and
* stream prefixes are nested: enlarging a sample set keeps previous inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_int
from .solver import DEPTH_RANGE, SHIFT_RANGE, RandomInputs

__all__ = [
    "SampleStream",
    "pilot_stream",
    "replicate_stream",
    "validation_stream",
]

PILOT_TAG = "pilot"
VALIDATION_TAG = "validation"
REPLICATE_TAG_FORMAT = "estimate:{:d}"


def _stream_key(master_seed: int, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:16], "little")


@dataclass(frozen=True)
class SampleStream:
    """Addressable stream of random inputs for one purpose tag."""

    master_seed: int
    tag: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", as_int(self.master_seed, "master_seed"))
        if not self.tag:
            raise ConfigError("stream tag must be non-empty")

    def theta(self, index: int) -> RandomInputs:
        """The random input at a given stream index (independent of batching)."""
        index = as_int(index, "stream index")
        if index < 0:
            raise ConfigError(f"stream index must be >= 0, got {index}")
        key = _stream_key(self.master_seed, self.tag, index)
        gen = np.random.Generator(np.random.Philox(key=key))
        draws = gen.random(12).reshape(4, 3)
        mu = DEPTH_RANGE[0] + (DEPTH_RANGE[1] - DEPTH_RANGE[0]) * draws[:, 0]
        eta = SHIFT_RANGE[0] + (SHIFT_RANGE[1] - SHIFT_RANGE[0]) * draws[:, 1:]
        return RandomInputs(mu=mu, eta=eta)


def pilot_stream(master_seed: int) -> SampleStream:
    """Stream used for pilot statistics."""
    return SampleStream(master_seed, PILOT_TAG)


def replicate_stream(master_seed: int, replicate: int) -> SampleStream:
    """Independent stream for one estimator replicate."""
    replicate = as_int(replicate, "replicate index")
    if replicate < 0:
        raise ConfigError(f"replicate index must be >= 0, got {replicate}")
    return SampleStream(master_seed, REPLICATE_TAG_FORMAT.format(replicate))


def validation_stream(master_seed: int) -> SampleStream:
    """Stream used for the reference (validation) estimate."""
    return SampleStream(master_seed, VALIDATION_TAG)

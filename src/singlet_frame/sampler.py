"""Seeded generation of correlated outcome pairs and their joint counts.

Outcome pairs are drawn by inverse-CDF sampling of the closed-form joint
distribution, with the cumulative categories fixed in the order
(+,+), (+,-), (-,+), (-,-).  When only the four joint counts of a batch
are needed, one multinomial draw over the same categories gives them with
the same distribution at a cost independent of the batch size.
Randomness comes from numpy's Philox (4x64) counter-based bit generator
keyed by ``(seed, stream_id)``: the same configuration reproduces the
same sequence on any platform, and distinct stream ids give independent
streams that may be consumed in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Direction, _checked_cos, cos_angle

__all__ = [
    "SamplerConfig",
    "OutcomeRecord",
    "sample_outcome_pair",
    "run_measurement_batch",
    "sample_joint_counts",
]

GENERATOR_NAME = "philox4x64"

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (used only to derive stream ids)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SamplerConfig:
    """Identifies one reproducible random stream.

    ``seed`` names the experiment, ``stream_id`` one independent stream
    within it; both are unsigned 64-bit values and together form the
    Philox key.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= _MASK64:
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {v!r}")

    def child(self, *path: int) -> "SamplerConfig":
        """Derive a config for an independent substream.

        Folds the index path into ``stream_id`` with splitmix64, so e.g.
        per-trial streams do not depend on evaluation order and distinct
        paths give distinct streams.
        """
        s = self.stream_id
        for k in path:
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"substream indices must be nonnegative integers, got {k!r}")
            s = _splitmix64((s + _splitmix64(k)) & _MASK64)
        return SamplerConfig(self.seed, s)

    def generator(self) -> np.random.Generator:
        # an explicit uint64 key: a tuple holding a value >= 2**63 would go through float64
        key = np.array((self.seed, self.stream_id), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """An ordered batch of outcome pairs and the settings they were drawn under."""

    a: np.ndarray
    b: np.ndarray
    x: Direction
    y: Direction

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.int8)
        b = np.asarray(self.b, dtype=np.int8)
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
            raise ValueError("outcome arrays must be 1-d and of equal length")
        if a.size == 0:
            raise ValueError("outcome record must contain at least one pair")
        if not (np.all(np.abs(a) == 1) and np.all(np.abs(b) == 1)):
            raise ValueError("outcomes must all be -1 or +1")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return int(self.a.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutcomeRecord):
            return NotImplemented
        return (
            np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
            and self.x == other.x
            and self.y == other.y
        )

    def pairs(self):
        """Iterate over (a_i, b_i) as plain ints."""
        return zip(self.a.tolist(), self.b.tolist())

    def products(self) -> np.ndarray:
        """Elementwise a_i * b_i."""
        return self.a * self.b


def _category_bounds(c: float) -> tuple[float, float, float]:
    # cumulative boundaries after (+,+), (+,-), (-,+) under the fixed ordering
    return ((1.0 - c) / 4.0, 0.5, (3.0 + c) / 4.0)


def sample_outcome_pair(cos_theta: float, rng: np.random.Generator) -> tuple[int, int]:
    """Draw one (a, b) pair, advancing ``rng`` by a single uniform."""
    c = _checked_cos(cos_theta)
    b1, b2, b3 = _category_bounds(c)
    u = rng.random()
    if u < b1:
        return (1, 1)
    if u < b2:
        return (1, -1)
    if u < b3:
        return (-1, 1)
    return (-1, -1)


def _check_batch_size(batch_size: int) -> None:
    if not isinstance(batch_size, int) or isinstance(batch_size, bool) or batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")


def run_measurement_batch(x: Direction, y: Direction, batch_size: int, config: SamplerConfig) -> OutcomeRecord:
    """Draw ``batch_size`` independent outcome pairs at settings (x, y).

    Deterministic in ``config``; a fresh generator is keyed from it, so
    batches for distinct configs are independent of evaluation order.
    """
    _check_batch_size(batch_size)
    c = cos_angle(x, y)
    bounds = np.array(_category_bounds(c))
    u = config.generator().random(batch_size)
    cat = np.searchsorted(bounds, u, side="right")
    a = np.where(cat <= 1, 1, -1).astype(np.int8)
    b = np.where(cat % 2 == 0, 1, -1).astype(np.int8)
    return OutcomeRecord(a=a, b=b, x=x, y=y)


def sample_joint_counts(
    x: Direction, y: Direction, batch_size: int, config: SamplerConfig
) -> tuple[int, int, int, int]:
    """Joint counts (m_pp, m_pm, m_mp, m_mm) of ``batch_size`` pairs at (x, y).

    One multinomial draw over the four categories, so the counts have the
    distribution of tallying ``run_measurement_batch`` at any batch size
    (the two consume ``config``'s stream differently, so their values
    differ).  Deterministic in ``config``.
    """
    _check_batch_size(batch_size)
    c = _checked_cos(x.dot(y))
    same, anti = (1.0 - c) / 4.0, (1.0 + c) / 4.0
    return tuple(config.generator().multinomial(batch_size, (same, anti, anti, same)).tolist())

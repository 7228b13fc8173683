"""Seeded generation of correlated outcome pairs and their joint counts.

Outcome pairs are drawn by inverse-CDF sampling of the closed-form joint
distribution, with the cumulative categories fixed in the order
(+,+), (+,-), (-,+), (-,-); ``tally`` counts a drawn record's pairs into
a ``CountTable`` in the same order.  When only the four joint counts of a
batch are needed, one multinomial draw over the same categories gives
them with the same distribution at a cost independent of the batch size.
Randomness comes from numpy's Philox (4x64) counter-based bit generator
keyed by ``(seed, stream_id)``: the same configuration reproduces the
same sequence on any platform, and distinct stream ids give independent
streams that may be consumed in any order.  ``_joint_counts`` draws the
counts of many settings at once: one multinomial over k rows from one
child stream.  A counter-based generator's whole state is its key and
counter, so each thread keeps one Philox, built on its first draw, and
every draw, a record's or a multinomial's, re-keys it to ``(seed, stream
id)`` with a zero counter; each draw is bit for bit the one a fresh
``SamplerConfig.generator`` of its config (or child) gives.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import INT64_MAX, UINT64_MAX, CountTable, Direction, _checked_cos, _checked_instance, _checked_int
from .core import _checked_outcomes, _dots, _singlet_cells, cos_angle

__all__ = [
    "SamplerConfig",
    "OutcomeRecord",
    "tally",
    "sample_outcome_pair",
    "run_measurement_batch",
    "sample_joint_counts",
]

# pairs per block of uniforms in run_measurement_batch; of 4K-64K, 16K drew 1e7 pairs fastest
_DRAW_PAIRS = 16_384

# folded stream ids kept: a transfer folds 1 + refine_rounds constant paths, a frame 3 + 3 times that
_FOLD_CACHE_SIZE = 256


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (used only to derive stream ids)."""
    x = (x + 0x9E3779B97F4A7C15) & UINT64_MAX
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & UINT64_MAX
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & UINT64_MAX
    return x ^ (x >> 31)


def _fold(stream_id: int, path) -> int:
    """Fold a substream index path into ``stream_id`` with splitmix64, once per (stream_id, path).

    The indices are checked before the cache is read: True hashes equal to 1
    and 1.0, so a cache keyed on the raw path would hand them 1's entry.
    """
    return _folded(stream_id, tuple([_checked_int(k, "substream indices", 0, UINT64_MAX) for k in path]))


@lru_cache(maxsize=_FOLD_CACHE_SIZE)
def _folded(stream_id: int, path: tuple[int, ...]) -> int:
    for k in path:
        stream_id = _splitmix64((stream_id + _splitmix64(k)) & UINT64_MAX)
    return stream_id


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
        _checked_int(self.seed, "seed", 0, UINT64_MAX)
        _checked_int(self.stream_id, "stream_id", 0, UINT64_MAX)

    def child(self, *path: int) -> "SamplerConfig":
        """Derive a config for an independent substream.

        Folds the index path, each index a uint64 like ``stream_id``, into
        ``stream_id`` with splitmix64, so e.g. per-trial streams do not
        depend on evaluation order and distinct paths give distinct streams.
        """
        return SamplerConfig(self.seed, _fold(self.stream_id, path))

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
        _checked_instance(self.x, Direction, "x")
        _checked_instance(self.y, Direction, "y")
        # private copies: freezing them leaves the caller's arrays writable
        a = _checked_outcomes(self.a).copy()
        b = _checked_outcomes(self.b).copy()
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
            raise ValueError("outcome arrays must be 1-d and of equal length")
        if a.size == 0:
            raise ValueError("outcome record must contain at least one pair")
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


def tally(record: OutcomeRecord) -> CountTable:
    """Exact joint counts of one outcome record."""
    return CountTable(*np.bincount(2 * (record.a < 0) + (record.b < 0), minlength=4).tolist())


def _checked_settings(x, y, config) -> None:
    """The type rule of a public draw's arguments: two Directions and a SamplerConfig."""
    _checked_instance(x, Direction, "x")
    _checked_instance(y, Direction, "y")
    _checked_instance(config, SamplerConfig, "config")


def _category_bounds(c: float) -> tuple[float, float, float]:
    # cumulative boundaries after (+,+), (+,-), (-,+) under the fixed ordering
    return ((1.0 - c) / 4.0, 0.5, (3.0 + c) / 4.0)


def sample_outcome_pair(cos_theta: float, rng: np.random.Generator) -> tuple[int, int]:
    """Draw one (a, b) pair, advancing ``rng`` by a single uniform."""
    bounds = _category_bounds(_checked_cos(cos_theta))
    return ((1, 1), (1, -1), (-1, 1), (-1, -1))[bisect_right(bounds, rng.random())]


def run_measurement_batch(x: Direction, y: Direction, batch_size: int, config: SamplerConfig) -> OutcomeRecord:
    """Draw ``batch_size`` independent outcome pairs at settings (x, y).

    Deterministic in ``config``: the thread's Philox is re-keyed to
    ``(seed, stream_id)``, so batches for distinct configs are independent
    of evaluation order.  The uniforms come ``_DRAW_PAIRS`` at a time from
    that one stream, so the pairs are those of one draw, and the memory
    beyond the two int8 outcome arrays is one block's.
    """
    _checked_int(batch_size, "batch_size", 1, INT64_MAX)
    _checked_settings(x, y, config)
    low, half, high = _category_bounds(cos_angle(x, y))
    rng = _keyed_generator(config.seed, config.stream_id)
    a, b = np.empty((2, batch_size), dtype=np.int8)
    for start in range(0, batch_size, _DRAW_PAIRS):
        u = rng.random(min(_DRAW_PAIRS, batch_size - start))
        # the cells bisect_right gives: a = +1 below 1/2, b = +1 below an odd number of bounds
        plus_a = u < half
        plus_b = (u < low) ^ plus_a ^ (u < high)
        a[start : start + u.size] = 2 * plus_a.view(np.int8) - 1
        b[start : start + u.size] = 2 * plus_b.view(np.int8) - 1
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
    _checked_settings(x, y, config)
    return tuple(_joint_counts(x, ((y.x, y.y, y.z),), batch_size, config)[0].tolist())


class _ThreadPhilox(threading.local):
    """One Philox, its Generator and a state to re-key it with, built on a thread's first use."""

    def __init__(self):
        self.key = np.zeros(2, dtype=np.uint64)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self.key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.bit_generator = np.random.Philox(key=self.key)
        self.generator = np.random.Generator(self.bit_generator)


_THREAD_PHILOX = _ThreadPhilox()


def _keyed_generator(seed: int, stream_id: int) -> np.random.Generator:
    """The thread's generator, in the state a fresh ``SamplerConfig(seed, stream_id).generator`` starts in."""
    philox = _THREAD_PHILOX
    philox.key[0] = seed
    philox.key[1] = stream_id
    philox.bit_generator.state = philox.state
    return philox.generator  # shared by the thread's draws: use it before the next re-key


def _joint_counts(x: Direction, ys, batch_size: int, config: SamplerConfig, *path: int) -> np.ndarray:
    """One (k, 4) int64 multinomial of the joint counts at x and each row of ``ys``.

    The k rows (each (y.x, y.y, y.z), as Python floats or an array row) are
    drawn in order from ``config.child(*path)``, so a one-row draw is
    ``sample_joint_counts(x, y, batch_size, config.child(*path))``.
    ``batch_size`` must be below 2**63.  Every call re-keys the calling
    thread's Philox to the state a Philox keyed ``(seed, child stream id)``
    is built in: zero counter, empty buffer.  Only a thread's first draw
    builds a bit generator.
    """
    _checked_int(batch_size, "batch_size", 1, INT64_MAX)  # numpy's multinomial takes a C long
    pvals = _singlet_cells(_dots(x, ys))
    return _keyed_generator(config.seed, _fold(config.stream_id, path)).multinomial(batch_size, pvals)

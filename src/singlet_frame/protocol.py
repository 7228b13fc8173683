"""Direction transfer by maximizing estimated mutual information.

One party holds a fixed direction; the other scores trial directions by
the mutual information estimated from the joint counts of a shared
measurement batch per trial, takes the best, sharpens it with a
shrinking-cap ring search, and resolves the antipodal ambiguity with a
hemisphere prior when one is available.  Repeating per axis transfers a
full frame.  A prior is its pole: ``HemispherePrior(None)`` is no prior.

Trial directions come from a deterministic Fibonacci-spiral layout
(optionally jittered), restricted to the prior hemisphere when it has a pole.
In ``exact`` mode trials are scored by the closed-form mutual information
instead of sampled batches, which separates optimizer behavior from
statistical noise.  Each phase (the coarse layout, each refinement round)
is scored as one block of rows with one joint-count draw; a row is a
direction's (x, y, z) as a tuple of Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .core import UINT64_MAX, CountTable, Direction, _check_orthonormal, _checked_instance, _checked_int, _dots
from .core import _plug_in_mi, analytic_mutual_information, estimate_mutual_information
# tally and run_measurement_batch go uncalled here, bound for perfbench's tracer, which wraps them by name
from .sampler import SamplerConfig, _joint_counts, _keyed_generator, run_measurement_batch, tally  # noqa: F401

__all__ = [
    "HemispherePrior",
    "TrialRecord",
    "ProtocolParams",
    "TransferResult",
    "FrameEstimate",
    "generate_trial_directions",
    "resolve_sign",
    "transfer_direction",
    "transfer_frame",
]

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

RING_SIZE = 8

# (cos, sin) of each ring azimuth, in candidate order
_RING_TRIG = [(math.cos(az), math.sin(az)) for az in (2.0 * math.pi * j / RING_SIZE for j in range(RING_SIZE))]

# substream namespaces, so coarse trials, refinement evaluations, and
# per-axis runs never share a random stream
_STREAM_COARSE = 0
_STREAM_REFINE = 1
_STREAM_AXIS = 2

_JITTER_STREAM = 0x5D1A4F7C3B2E6980


@dataclass(frozen=True)
class HemispherePrior:
    """Side information restricting the unknown direction to dot(v, pole) >= 0; a None pole is no prior."""

    pole: Direction | None

    def __post_init__(self):
        _checked_instance(self.pole, (Direction, type(None)), "pole")

    @classmethod
    def around(cls, pole: Direction) -> "HemispherePrior":
        return cls(pole)


@dataclass(frozen=True)
class TrialRecord:
    """One scored trial direction.

    ``counts`` is None for exact-mode scores; when present, the stored
    estimate must equal the plug-in value of the counts exactly.
    """

    trial_index: int
    direction: Direction
    mi_estimate: float
    counts: CountTable | None = None

    def __post_init__(self):
        if self.counts is not None and self.mi_estimate != estimate_mutual_information(self.counts):
            raise ValueError("mi_estimate does not match its count table")


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs for one direction transfer.

    ``n_trials`` coarse directions, ``batch_size`` pairs per evaluation,
    ``refine_rounds`` shrinking-cap rounds.  ``prior`` is a
    ``HemispherePrior``.  ``config`` may be None in exact mode.
    ``jitter_seed`` is None or a uint64.
    """

    n_trials: int
    batch_size: int
    refine_rounds: int
    prior: HemispherePrior
    config: SamplerConfig | None = None
    mode: str = "sampled"
    jitter_seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("sampled", "exact"):
            raise ValueError(f"mode must be 'sampled' or 'exact', got {self.mode!r}")
        _checked_instance(self.prior, HemispherePrior, "prior")
        _checked_int(self.n_trials, "n_trials", 1)
        _checked_int(self.batch_size, "batch_size", 1)
        _checked_int(self.refine_rounds, "refine_rounds")
        if self.jitter_seed is not None:
            _checked_int(self.jitter_seed, "jitter_seed", 0, UINT64_MAX)
        _checked_instance(self.config, (SamplerConfig, type(None)), "config")
        if self.mode == "sampled" and self.config is None:
            raise ValueError("sampled mode requires a sampler config")

    def initial_half_angle(self) -> float:
        """Half-angle of the first refinement cap, covering the worst-case gap of the coarse layout."""
        return 1.5 * math.sqrt((2.0 if self.prior.pole is not None else 4.0) / self.n_trials)

    def resolution(self) -> float:
        """Half-angle of the last refinement cap (the nominal final accuracy): the cap halves each round."""
        return self.initial_half_angle() * 0.5 ** max(self.refine_rounds - 1, 0)


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one single-direction transfer, with every evaluation as a row.

    Row i is ``directions[i]`` (x, y, z), ``scores[i]``, ``counts[i]``
    (m_pp, m_pm, m_mp, m_mm; ``counts`` is None in exact mode) and
    ``phases[i]``: (0, 0) for a coarse trial, (1, r) for refinement round
    r.  The coarse trials come first, in trial-index order.
    """

    direction: Direction
    mi_score: float
    sign_resolved: bool
    singlets_used: int
    refine_evaluations: int
    directions: tuple[tuple[float, float, float], ...]
    scores: tuple[float, ...]
    counts: tuple[tuple[int, int, int, int], ...] | None
    phases: tuple[tuple[int, int], ...]

    def coarse_rows(self):
        """(direction, score, counts) of each coarse trial, in trial-index order."""
        n = len(self.scores) - self.refine_evaluations
        return zip(self.directions[:n], self.scores, self.counts or (None,) * n)

    @cached_property
    def trials(self) -> tuple[TrialRecord, ...]:
        """The coarse trials as records, built (and their scores checked) on first read."""
        return tuple(
            TrialRecord(i, Direction(*d), s, None if c is None else CountTable(*c))
            for i, (d, s, c) in enumerate(self.coarse_rows())
        )


@dataclass(frozen=True)
class FrameEstimate:
    """Three transferred axes and the per-axis transfers they came from."""

    axes: tuple[Direction, Direction, Direction]
    axis_results: tuple[TransferResult, TransferResult, TransferResult]
    orthonormalized: bool

    def __post_init__(self):
        if self.orthonormalized:
            _check_orthonormal(self.axes, "FrameEstimate.axes")


def _cross(a, b) -> tuple[float, float, float]:
    """``np.cross`` of two 3-vectors, with its operation order."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _tangent_basis(d: Direction) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Deterministic orthonormal basis of the plane perpendicular to ``d``, as two rows of Python floats.

    The helper axis is the first one along which ``d`` is smallest (as
    ``np.argmin`` picks it); the norm is ``np.linalg.norm``'s sqrt(e1.dot(e1)),
    on an array, since a Python sum of the three squares need not round alike.
    """
    v = (d.x, d.y, d.z)
    magnitudes = [abs(t) for t in v]
    helper = [0.0, 0.0, 0.0]
    helper[magnitudes.index(min(magnitudes))] = 1.0
    e1 = _cross(v, helper)
    row = np.array(e1)
    n = math.sqrt(row.dot(row))
    e1 = (e1[0] / n, e1[1] / n, e1[2] / n)
    return e1, _cross(v, e1)


def generate_trial_directions(
    count: int, prior: HemispherePrior, jitter_seed: int | None = None
) -> list[Direction]:
    """Deterministic low-discrepancy trial directions.

    Fibonacci-spiral layout over the sphere, or over the prior hemisphere
    when the prior has a pole (the first point is then the pole itself, so
    count=1 returns exactly the pole).  A jitter seed perturbs each point
    by about half the lattice spacing, deterministically; jittered points
    are reflected back into the hemisphere if needed.
    """
    _checked_instance(prior, HemispherePrior, "prior")
    return [Direction(*row) for row in _trial_layout(count, prior, jitter_seed).tolist()]


@lru_cache(maxsize=32)
def _unit_spiral(count: int, hemisphere: bool) -> np.ndarray:
    """The Fibonacci spiral around +z as a read-only (count, 3) array, computed once per argument pair."""
    k = np.arange(count)
    if hemisphere:
        z = 1.0 - k / count
    else:
        z = 1.0 - (2.0 * k + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    az = k * GOLDEN_ANGLE
    local = np.column_stack([r * np.cos(az), r * np.sin(az), z])
    local.setflags(write=False)  # every caller shares it
    return local


def _trial_layout(count: int, prior: HemispherePrior, jitter_seed: int | None) -> np.ndarray:
    """``generate_trial_directions``' points as a (count, 3) array; read-only without a prior or jitter."""
    _checked_int(count, "count", 1)
    local = _unit_spiral(count, prior.pole is not None)
    if prior.pole is not None:
        pole = prior.pole
        points = local @ np.array([*_tangent_basis(pole), (pole.x, pole.y, pole.z)])
    else:
        points = local

    if jitter_seed is not None:
        rng = _keyed_generator(_checked_int(jitter_seed, "jitter_seed", 0, UINT64_MAX), _JITTER_STREAM)
        sigma = 0.5 * math.sqrt((2.0 if prior.pole is not None else 4.0) / count)
        noise = sigma * rng.normal(size=(count, 3))
        if prior.pole is not None:
            noise[0] = 0.0  # keep the pole-by-convention first point
        points = points + noise
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        if prior.pole is not None:
            pole_v = prior.pole.as_array()
            dots = points @ pole_v
            below = dots < 0.0
            points[below] -= 2.0 * dots[below, None] * pole_v
    return points


def _score_rows(alice_direction: Direction, ys, params: ProtocolParams, *stream: int):
    """``(scores, counts)`` of each (x, y, z) row of ``ys``, the scores a list of floats.

    Coarse trials and refinement share it.  In sampled mode the counts are
    one draw of k rows from ``params.config.child(*stream)``, as lists of
    4 ints, and a score is its row's plug-in MI on Python ints (exact at
    any batch); in exact mode the scores are the closed form and counts is
    None.
    """
    if params.mode == "exact":
        return analytic_mutual_information(_dots(alice_direction, ys)).tolist(), None
    counts = _joint_counts(alice_direction, ys, params.batch_size, params.config, *stream).tolist()
    return [_plug_in_mi(*row, params.batch_size) for row in counts], counts


def resolve_sign(estimate: Direction, prior: HemispherePrior) -> tuple[Direction, bool]:
    """Flip the estimate into the prior hemisphere; no-op without a pole."""
    _checked_instance(estimate, Direction, "estimate")
    if _checked_instance(prior, HemispherePrior, "prior").pole is None:
        return estimate, False
    if prior.pole.dot(estimate) < 0.0:
        return -estimate, True
    return estimate, True


def _ring_candidates(center: Direction, half_angle: float) -> list[tuple[float, float, float]]:
    """The center, then the RING_SIZE candidates at ``half_angle`` around it: one row each."""
    (a1, a2, a3), (b1, b2, b3) = _tangent_basis(center)
    x, y, z = center.x, center.y, center.z
    ch, sh = math.cos(half_angle), math.sin(half_angle)
    cx, cy, cz = ch * x, ch * y, ch * z
    # ch*c + sh*(cos_j*e1 + sin_j*e2) on Python floats, in the order numpy evaluates it over the ring
    return [(x, y, z)] + [
        (cx + sh * (cj * a1 + sj * b1), cy + sh * (cj * a2 + sj * b2), cz + sh * (cj * a3 + sj * b3))
        for cj, sj in _RING_TRIG
    ]


def transfer_direction(alice_direction: Direction, params: ProtocolParams) -> TransferResult:
    """Full single-direction pipeline: layout, score, select, refine, resolve.

    Each phase keeps its first maximum.  Refinement round r scores that
    direction and a ring of RING_SIZE candidates around it on stream
    (_STREAM_REFINE, r), at a cap half-angle that starts at
    ``params.initial_half_angle()`` and halves each round.  The objective
    is even under negation, so the search ignores any prior and tracks
    the direction up to sign until ``resolve_sign`` maps it into the prior
    hemisphere; restricting candidates instead would trap the search at
    the hemisphere boundary whenever the target sits near the equator.
    """
    _checked_instance(alice_direction, Direction, "alice_direction")
    rows = list(zip(*_trial_layout(params.n_trials, params.prior, params.jitter_seed).T.tolist()))  # tuple rows
    scores, counts = _score_rows(alice_direction, rows, params, _STREAM_COARSE)
    phases = [(_STREAM_COARSE, 0)] * len(rows)
    best = scores.index(max(scores))  # the row index of the current phase's first maximum
    for r in range(params.refine_rounds):
        ring = _ring_candidates(Direction(*rows[best]), params.initial_half_angle() * 0.5**r)  # halving is exact
        ring_scores, ring_counts = _score_rows(alice_direction, ring, params, _STREAM_REFINE, r)
        best = len(rows) + ring_scores.index(max(ring_scores))
        rows += ring
        scores += ring_scores
        counts = None if counts is None else counts + ring_counts
        phases += [(_STREAM_REFINE, r)] * len(ring)
    final, resolved = resolve_sign(Direction(*rows[best]), params.prior)
    return TransferResult(
        direction=final,
        mi_score=scores[best],
        sign_resolved=resolved,
        singlets_used=0 if counts is None else len(rows) * params.batch_size,
        refine_evaluations=len(rows) - params.n_trials,
        directions=tuple(rows),
        scores=tuple(scores),
        counts=None if counts is None else tuple(map(tuple, counts)),
        phases=tuple(phases),
    )


def transfer_frame(
    alice_frame: tuple[Direction, Direction, Direction],
    params: ProtocolParams,
    orthonormalize: bool = False,
    priors: tuple[HemispherePrior, HemispherePrior, HemispherePrior] | None = None,
) -> FrameEstimate:
    """Transfer three orthonormal axes with independent per-axis runs.

    Each axis gets its own derived random stream.  ``priors`` overrides
    the shared prior per axis (an orthonormal frame usually needs one
    pole per axis).  With ``orthonormalize`` the three estimates are
    projected to the nearest orthonormal triad, and each projected axis
    is then put back in its prior hemisphere: the paper fixes each axis
    only up to inversion, so the triad's handedness may be -1.
    """
    _check_orthonormal(alice_frame, "alice_frame")
    _checked_instance(orthonormalize, bool, "orthonormalize")
    if priors is not None and len(_checked_instance(priors, (tuple, list), "priors")) != 3:
        raise ValueError("priors must contain exactly three entries")

    priors = priors if priors is not None else (params.prior,) * 3
    results = [
        transfer_direction(axis, replace(
            params, prior=priors[k], config=None if params.config is None else params.config.child(_STREAM_AXIS, k),
        ))
        for k, axis in enumerate(alice_frame)
    ]

    axes = tuple(r.direction for r in results)
    if orthonormalize:  # the closest orthonormal matrix in Frobenius norm (polar factor)
        u, _, vt = np.linalg.svd(np.vstack([a.as_array() for a in axes]))
        # negating a row keeps the matrix orthogonal
        axes = tuple(resolve_sign(Direction(*row), prior)[0] for row, prior in zip((u @ vt).tolist(), priors))

    return FrameEstimate(axes=axes, axis_results=tuple(results), orthonormalized=orthonormalize)

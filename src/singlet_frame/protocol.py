"""Direction transfer by maximizing estimated mutual information.

One party holds a fixed direction; the other scores trial directions by
the mutual information estimated from the joint counts of a shared
measurement batch per trial, takes the best, sharpens it with a
shrinking-cap ring search, and resolves the antipodal ambiguity with a
hemisphere prior when one is available.  Repeating per axis transfers a
full frame.

Trial directions come from a deterministic Fibonacci-spiral layout
(optionally jittered), restricted to the prior hemisphere when enabled.
In ``exact`` mode trials are scored by the closed-form mutual information
instead of sampled batches, which separates optimizer behavior from
statistical noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Direction, analytic_mutual_information, cos_angle
# tally and run_measurement_batch stay bound for perfbench's tracer, which wraps them by name
from .estimator import CountTable, estimate_mutual_information, tally  # noqa: F401
from .sampler import SamplerConfig, run_measurement_batch, sample_joint_counts  # noqa: F401

__all__ = [
    "HemispherePrior",
    "TrialRecord",
    "ProtocolParams",
    "TransferResult",
    "FrameEstimate",
    "generate_trial_directions",
    "evaluate_trial",
    "select_best",
    "refine",
    "resolve_sign",
    "transfer_direction",
    "transfer_frame",
    "default_initial_half_angle",
    "refinement_resolution",
]

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

RING_SIZE = 8

# substream namespaces, so coarse trials, refinement evaluations, and
# per-axis runs never share a random stream
_STREAM_COARSE = 0
_STREAM_REFINE = 1
_STREAM_AXIS = 2

_JITTER_STREAM = 0x5D1A4F7C3B2E6980


@dataclass(frozen=True)
class HemispherePrior:
    """Side information restricting the unknown direction to dot(v, pole) >= 0."""

    pole: Direction | None
    enabled: bool

    def __post_init__(self):
        if self.enabled and self.pole is None:
            raise ValueError("an enabled hemisphere prior needs a pole")

    @classmethod
    def around(cls, pole: Direction) -> "HemispherePrior":
        return cls(pole=pole, enabled=True)

    @classmethod
    def none(cls) -> "HemispherePrior":
        return cls(pole=None, enabled=False)

    def contains(self, d: Direction) -> bool:
        return (not self.enabled) or self.pole.dot(d) >= 0.0


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
    ``refine_rounds`` shrinking-cap rounds.  ``config`` may be None in
    exact mode.  ``initial_half_angle`` defaults to a cap wide enough to
    cover the coarse layout's worst-case gap.
    """

    n_trials: int
    batch_size: int
    refine_rounds: int
    prior: HemispherePrior
    config: SamplerConfig | None = None
    mode: str = "sampled"
    jitter_seed: int | None = None
    initial_half_angle: float | None = None

    def __post_init__(self):
        if self.mode not in ("sampled", "exact"):
            raise ValueError(f"mode must be 'sampled' or 'exact', got {self.mode!r}")
        for name, low in (("n_trials", 1), ("batch_size", 1), ("refine_rounds", 0)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        if self.mode == "sampled" and self.config is None:
            raise ValueError("sampled mode requires a sampler config")

    def resolved_initial_half_angle(self) -> float:
        if self.initial_half_angle is not None:
            return self.initial_half_angle
        return default_initial_half_angle(self.n_trials, self.prior.enabled)

    def resolution(self) -> float:
        """Half-angle of the last refinement cap (the nominal final accuracy)."""
        return refinement_resolution(self.resolved_initial_half_angle(), self.refine_rounds)


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one single-direction transfer."""

    direction: Direction
    mi_score: float
    sign_resolved: bool
    trials: tuple[TrialRecord, ...]
    singlets_used: int
    refine_evaluations: int


@dataclass(frozen=True)
class FrameEstimate:
    """Three transferred axes with per-axis sign flags and scores."""

    axes: tuple[Direction, Direction, Direction]
    sign_resolved: tuple[bool, bool, bool]
    mi_scores: tuple[float, float, float]
    orthonormalized: bool
    axis_results: tuple[TransferResult, ...] | None = None

    def __post_init__(self):
        if self.orthonormalized:
            for i in range(3):
                for j in range(i + 1, 3):
                    if abs(self.axes[i].dot(self.axes[j])) >= 1e-10:
                        raise ValueError("orthonormalized axes must be pairwise orthogonal")


def default_initial_half_angle(n_trials: int, hemisphere: bool) -> float:
    """Cap half-angle covering the worst-case gap of the coarse layout."""
    area_factor = 2.0 if hemisphere else 4.0
    return 1.5 * math.sqrt(area_factor / n_trials)


def refinement_resolution(initial_half_angle: float, rounds: int) -> float:
    """Half-angle of the last evaluated cap: halves each round."""
    if rounds <= 0:
        return initial_half_angle
    return initial_half_angle * 0.5 ** (rounds - 1)


def _tangent_basis(d: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of the plane perpendicular to ``d``."""
    v = d.as_array()
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(v)))] = 1.0
    e1 = np.cross(v, helper)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(v, e1)


def generate_trial_directions(
    count: int, prior: HemispherePrior, jitter_seed: int | None = None
) -> list[Direction]:
    """Deterministic low-discrepancy trial directions.

    Fibonacci-spiral layout over the sphere, or over the prior hemisphere
    when the prior is enabled (the first point is then the pole itself, so
    count=1 returns exactly the pole).  A jitter seed perturbs each point
    by about half the lattice spacing, deterministically; jittered points
    are reflected back into the hemisphere if needed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(count)
    if prior.enabled:
        z = 1.0 - k / count
    else:
        z = 1.0 - (2.0 * k + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    az = k * GOLDEN_ANGLE
    local = np.column_stack([r * np.cos(az), r * np.sin(az), z])

    if prior.enabled:
        e1, e2 = _tangent_basis(prior.pole)
        frame = np.vstack([e1, e2, prior.pole.as_array()])
        points = local @ frame
    else:
        points = local

    if jitter_seed is not None:
        rng = np.random.Generator(np.random.Philox(key=(jitter_seed, _JITTER_STREAM)))
        sigma = 0.5 * math.sqrt((2.0 if prior.enabled else 4.0) / count)
        noise = sigma * rng.normal(size=(count, 3))
        if prior.enabled:
            noise[0] = 0.0  # keep the pole-by-convention first point
        points = points + noise
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        if prior.enabled:
            pole_v = prior.pole.as_array()
            dots = points @ pole_v
            below = dots < 0.0
            points[below] -= 2.0 * dots[below, None] * pole_v

    return [Direction(*row) for row in points]


def evaluate_trial(
    alice_direction: Direction,
    trial_direction: Direction,
    batch_size: int,
    config: SamplerConfig,
    trial_index: int = 0,
) -> TrialRecord:
    """Run one shared batch at the trial setting and score it.

    The fixed direction enters only through the simulated measurements;
    the returned record carries the trial direction, its counts, and the
    plug-in mutual-information estimate.
    """
    score = _make_scorer(alice_direction, "sampled", batch_size, config)
    return TrialRecord(trial_index, trial_direction, *score(trial_direction))


def exact_trial_score(alice_direction: Direction, trial_direction: Direction) -> float:
    """Noise-free trial score: the closed-form mutual information."""
    return analytic_mutual_information(cos_angle(alice_direction, trial_direction))


def _make_scorer(alice_direction: Direction, mode: str, batch_size: int, config: SamplerConfig | None):
    """The trial scorer shared by coarse trials and refinement.

    ``score(direction, *stream)`` returns ``(mi, counts)``.  In sampled
    mode the counts are one joint-count draw from ``config.child(*stream)``,
    so every evaluation owns its stream; in exact mode the score is the
    closed form and counts is None.
    """
    if mode == "exact":
        return lambda d, *stream: (exact_trial_score(alice_direction, d), None)
    if mode != "sampled":
        raise ValueError(f"mode must be 'sampled' or 'exact', got {mode!r}")
    if config is None:
        raise ValueError("sampled mode requires a sampler config")

    def score(d, *stream):
        joint = sample_joint_counts(alice_direction, d, batch_size, config.child(*stream))
        counts = CountTable.from_joint_counts(*joint)
        return estimate_mutual_information(counts), counts

    return score


def select_best(trials: list[TrialRecord] | tuple[TrialRecord, ...]) -> tuple[Direction, float]:
    """Direction of the maximal estimate; ties go to the lowest trial index."""
    if not trials:
        raise ValueError("cannot select from an empty trial list")
    best = max(trials, key=lambda t: (t.mi_estimate, -t.trial_index))
    return best.direction, best.mi_estimate


def resolve_sign(estimate: Direction, prior: HemispherePrior) -> tuple[Direction, bool]:
    """Flip the estimate into the prior hemisphere; no-op without a prior."""
    if not prior.enabled:
        return estimate, False
    if prior.pole.dot(estimate) < 0.0:
        return -estimate, True
    return estimate, True


def _ring_candidates(center: Direction, half_angle: float) -> list[Direction]:
    e1, e2 = _tangent_basis(center)
    c_v = center.as_array()
    ch, sh = math.cos(half_angle), math.sin(half_angle)
    out = []
    for j in range(RING_SIZE):
        az = 2.0 * math.pi * j / RING_SIZE
        out.append(Direction(*(ch * c_v + sh * (math.cos(az) * e1 + math.sin(az) * e2))))
    return out


def _refine_search(start, score, rounds, initial_half_angle, prior):
    """Shrinking-cap ring search; returns (direction, score, evaluations).

    The objective is even under negation, so candidates may wander out of
    the prior hemisphere while the search tracks the direction up to sign;
    the result is mapped back into the hemisphere at the end.  Restricting
    candidates instead would trap the search at the hemisphere boundary
    whenever the target sits near the equator and the climb approaches its
    antipode.

    ``score`` comes from ``_make_scorer``; candidate j of round r is scored
    on stream (_STREAM_REFINE, r, j), so results do not depend on
    evaluation order.  Score is None when rounds == 0.
    """
    current = start
    best_score = None
    evaluations = 0
    half_angle = initial_half_angle
    for r in range(rounds):
        candidates = [current] + _ring_candidates(current, half_angle)
        best = None
        for j, cand in enumerate(candidates):
            s, _ = score(cand, _STREAM_REFINE, r, j)
            evaluations += 1
            if best is None or s > best[0]:
                best = (s, cand)
        best_score, current = best
        half_angle *= 0.5
    if prior.enabled and prior.pole.dot(current) < 0.0:
        current = -current
    return current, best_score, evaluations


def refine(
    coarse_best: Direction,
    alice_direction: Direction,
    rounds: int,
    batch_size: int,
    config: SamplerConfig | None,
    prior: HemispherePrior,
    mode: str = "sampled",
    initial_half_angle: float | None = None,
) -> Direction:
    """Sharpen a coarse maximum with a shrinking-cap ring search.

    Each round scores the current best plus a ring of 8 candidates at the
    cap half-angle, keeps the argmax, and halves the cap.  rounds=0
    returns the input unchanged.  Candidates may leave an enabled prior
    hemisphere mid-search (scores are even under negation); the returned
    direction always lies inside it.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if initial_half_angle is None:
        initial_half_angle = default_initial_half_angle(50, prior.enabled)
    score = _make_scorer(alice_direction, mode, batch_size, config)
    direction, _, _ = _refine_search(coarse_best, score, rounds, initial_half_angle, prior)
    return direction


def transfer_direction(alice_direction: Direction, params: ProtocolParams) -> TransferResult:
    """Full single-direction pipeline: layout, score, select, refine, resolve."""
    score = _make_scorer(alice_direction, params.mode, params.batch_size, params.config)
    directions = generate_trial_directions(params.n_trials, params.prior, params.jitter_seed)
    trials = [TrialRecord(i, d, *score(d, _STREAM_COARSE, i)) for i, d in enumerate(directions)]
    best_direction, best_score = select_best(trials)

    refined, refined_score, evaluations = _refine_search(
        best_direction, score, params.refine_rounds,
        params.resolved_initial_half_angle(), params.prior,
    )
    singlets = 0 if params.mode == "exact" else (len(trials) + evaluations) * params.batch_size

    final, resolved = resolve_sign(refined, params.prior)
    return TransferResult(
        direction=final,
        mi_score=best_score if refined_score is None else refined_score,
        sign_resolved=resolved,
        trials=tuple(trials),
        singlets_used=singlets,
        refine_evaluations=evaluations,
    )


def _nearest_orthonormal(rows: np.ndarray) -> np.ndarray:
    """Orthonormal matrix closest in Frobenius norm (polar factor)."""
    u, _, vt = np.linalg.svd(rows)
    return u @ vt


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
    projected to the nearest orthonormal triad.
    """
    if len(alice_frame) != 3:
        raise ValueError("alice_frame must contain exactly three directions")
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(alice_frame[i].dot(alice_frame[j])) > 1e-10:
                raise ValueError("alice_frame axes must be orthonormal within 1e-10")
    if priors is not None and len(priors) != 3:
        raise ValueError("priors must contain exactly three entries")

    results = []
    for k, axis in enumerate(alice_frame):
        axis_params = replace(
            params,
            prior=priors[k] if priors is not None else params.prior,
            config=params.config.child(_STREAM_AXIS, k) if params.config is not None else None,
        )
        results.append(transfer_direction(axis, axis_params))

    axes = tuple(r.direction for r in results)
    if orthonormalize:
        projected = _nearest_orthonormal(np.vstack([a.as_array() for a in axes]))
        axes = tuple(Direction(*row) for row in projected)

    return FrameEstimate(
        axes=axes,
        sign_resolved=tuple(r.sign_resolved for r in results),
        mi_scores=tuple(r.mi_score for r in results),
        orthonormalized=orthonormalize,
        axis_results=tuple(results),
    )

import hashlib
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from singlet_frame import (
    CountTable,
    Direction,
    HemispherePrior,
    ProtocolParams,
    SamplerConfig,
    TrialRecord,
    analytic_mutual_information,
    cos_angle,
    direction_from_polar,
    estimate_mutual_information,
    generate_trial_directions,
    resolve_sign,
    transfer_direction,
    transfer_frame,
)
from singlet_frame import core, protocol, sampler
from singlet_frame.core import _dots
from singlet_frame.protocol import (
    RING_SIZE,
    _STREAM_COARSE,
    _STREAM_REFINE,
    _ring_candidates,
    _score_rows,
    _tangent_basis,
    _trial_layout,
    _unit_spiral,
)
from conftest import orthonormal_tangents, random_direction, tilted_pole

Z = Direction(0.0, 0.0, 1.0)
POLE_PRIOR = HemispherePrior.around(Z)
NO_PRIOR = HemispherePrior(None)


def _angle(u: Direction, v: Direction) -> float:
    return math.acos(cos_angle(u, v))


def _angle_up_to_sign(u: Direction, v: Direction) -> float:
    return math.acos(abs(cos_angle(u, v)))


class TestGenerateTrialDirections:
    def test_single_trial_is_the_pole(self):
        pole = direction_from_polar(0.7, 1.9)
        dirs = generate_trial_directions(1, HemispherePrior.around(pole))
        assert dirs == [pole]

    def test_unit_norm(self):
        for dirs in (
            generate_trial_directions(37, POLE_PRIOR),
            generate_trial_directions(37, NO_PRIOR),
            generate_trial_directions(37, POLE_PRIOR, jitter_seed=5),
        ):
            for d in dirs:
                assert abs(d.x**2 + d.y**2 + d.z**2 - 1.0) < 1e-12

    def test_hemisphere_constraint(self):
        pole = direction_from_polar(2.1, 0.3)
        prior = HemispherePrior.around(pole)
        for jitter in (None, 11, 99):
            for d in generate_trial_directions(64, prior, jitter_seed=jitter):
                assert pole.dot(d) >= 0.0

    def test_deterministic(self):
        a = generate_trial_directions(20, POLE_PRIOR, jitter_seed=3)
        b = generate_trial_directions(20, POLE_PRIOR, jitter_seed=3)
        assert a == b

    def test_jitter_seeds_differ(self):
        a = generate_trial_directions(20, NO_PRIOR, jitter_seed=1)
        b = generate_trial_directions(20, NO_PRIOR, jitter_seed=2)
        assert a != b
        assert a != generate_trial_directions(20, NO_PRIOR)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            generate_trial_directions(0, NO_PRIOR)

    def test_jitter_seeds_above_2_63_differ(self):
        # a (seed, stream) tuple key went through float64 and merged these two seeds
        a = generate_trial_directions(20, NO_PRIOR, jitter_seed=2**63 + 1)
        b = generate_trial_directions(20, NO_PRIOR, jitter_seed=2**63 + 2)
        assert a != b

    def test_largest_jitter_seed_runs_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dirs = generate_trial_directions(20, POLE_PRIOR, jitter_seed=2**64 - 1)
        assert len(dirs) == 20

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_jitter_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            generate_trial_directions(3, NO_PRIOR, jitter_seed=seed)

    def test_jitter_layout_below_2_63_pinned(self):
        # layouts of seeds below 2**63 are the ones the tuple key gave
        tilted = generate_trial_directions(4, HemispherePrior.around(Direction(0.6, 0.0, 0.8)), 2**63 - 1)
        assert [(d.x, d.y, d.z) for d in tilted] == [
            (0.6, 0.0, 0.8),
            (0.6660029834199147, -0.7455918477209716, -0.023082952319844596),
            (0.6714043642144847, 0.6871146733005428, 0.27765014937657106),
            (-0.26138332311053447, -0.5676814449670153, 0.7806513533196848),
        ]
        sphere = generate_trial_directions(4, NO_PRIOR, 2**63 - 1)
        assert [(d.x, d.y, d.z) for d in sphere] == [
            (0.4873654912397921, -0.5546821553969825, 0.6743905281309592),
            (-0.9602124628405218, 0.12873397307362086, -0.24782976088924402),
            (0.5201320464665422, -0.7925528242350742, -0.3183122288501245),
            (0.4932010810664625, 0.7976711422489935, -0.3470928441470072),
        ]

    def test_jitter_layouts_pinned_sha256(self):
        # taken when the jitter still built its own generator: the thread's re-keyed one draws the same normals
        digest = hashlib.sha256()
        for seed in (0, 7, 2**63, 2**64 - 1):
            for prior in (HemispherePrior.around(direction_from_polar(0.8, 0.9)), NO_PRIOR):
                for count in (1, 6, 50):
                    digest.update(repr([(d.x, d.y, d.z) for d in generate_trial_directions(count, prior, seed)]).encode())
        assert digest.hexdigest() == "73166720d31d85f69e90b058a1a41b74266706c23d63726625a1c17a93e9af88"

    def test_cached_spiral_is_read_only(self):
        for hemisphere in (True, False):
            spiral = _unit_spiral(17, hemisphere)
            assert spiral is _unit_spiral(17, hemisphere) and not spiral.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                spiral[1, 0] = 0.0
        # without a prior or jitter the layout is the cached spiral itself
        assert not _trial_layout(17, NO_PRIOR, None).flags.writeable

    @pytest.mark.parametrize("prior", [POLE_PRIOR, HemispherePrior.around(direction_from_polar(0.7, 0.5)), NO_PRIOR])
    def test_jitter_leaves_the_cached_spiral_unchanged(self, prior):
        _unit_spiral.cache_clear()
        fresh = _trial_layout(13, prior, None).tobytes()
        spiral = _unit_spiral(13, prior.pole is not None)
        assert spiral.tobytes() == _unit_spiral.__wrapped__(13, prior.pole is not None).tobytes()
        jittered = _trial_layout(13, prior, 2**64 - 7)
        assert jittered.tobytes() != fresh
        assert _trial_layout(13, prior, None).tobytes() == fresh
        assert _unit_spiral(13, prior.pole is not None) is spiral
        assert spiral.tobytes() == _unit_spiral.__wrapped__(13, prior.pole is not None).tobytes()

    def test_full_sphere_covers_both_hemispheres(self):
        zs = [d.z for d in generate_trial_directions(40, NO_PRIOR)]
        assert min(zs) < -0.5 and max(zs) > 0.5

    def test_coverage_up_to_sign(self, rng):
        # every direction is within the default cap of some trial point
        dirs = generate_trial_directions(50, POLE_PRIOR)
        mat = np.vstack([d.as_array() for d in dirs])
        cap = ProtocolParams(50, 1, 0, POLE_PRIOR, mode="exact").initial_half_angle()
        for _ in range(500):
            v = random_direction(rng)
            gap = math.acos(min(1.0, float(np.max(np.abs(mat @ v.as_array())))))
            assert gap < 1.1 * cap


def _bits(d: Direction) -> bytes:
    return np.array([d.x, d.y, d.z]).tobytes()


# axis-aligned settings, signed zeros and ties for the smallest component
EDGE_DIRECTIONS = [
    Direction(*v) for v in (
        (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0), (1.0, 1.0, 0.0),
        (1.0, -1.0, 1.0), (3.0, 4.0, 0.0), (0.0, 3.0, 4.0), (1.0, 2.0, 2.0), (1e-300, 1.0, 0.0),
    )
]


class TestGeometryBits:
    """The geometry reproduces, bit for bit, the numpy expressions it replaced."""

    def test_tangent_basis_matches_numpy_cross_and_norm(self, rng):
        # orthonormal_tangents is the np.cross / np.linalg.norm formulation
        for d in EDGE_DIRECTIONS + [random_direction(rng) for _ in range(500)]:
            for got, want in zip(_tangent_basis(d), orthonormal_tangents(d)):
                assert np.array(got).tobytes() == want.tobytes()

    def test_ring_matches_per_candidate_formula(self, rng):
        for d in EDGE_DIRECTIONS + [random_direction(rng) for _ in range(200)]:
            for half_angle in (1e-3, 0.3, 1.2):
                e1, e2 = orthonormal_tangents(d)
                ch, sh = math.cos(half_angle), math.sin(half_angle)
                want = []
                for j in range(RING_SIZE):
                    az = 2.0 * math.pi * j / RING_SIZE
                    want.append(Direction(*(ch * d.as_array() + sh * (math.cos(az) * e1 + math.sin(az) * e2))))
                ring = _ring_candidates(d, half_angle)
                assert all(type(row) is tuple for row in ring)
                rows = np.array(ring)
                assert rows.shape == (RING_SIZE + 1, 3) and rows[0].tobytes() == _bits(d)
                assert [r.tobytes() for r in rows[1:]] == [_bits(w) for w in want]

    def test_directions_hold_python_floats(self):
        prior = HemispherePrior.around(direction_from_polar(0.7, 0.5))
        params = ProtocolParams(20, 50, 2, prior, config=SamplerConfig(3), jitter_seed=3)
        res = transfer_direction(direction_from_polar(0.9, 0.2), params)
        made = generate_trial_directions(20, prior, jitter_seed=3) + [t.direction for t in res.trials] + [res.direction]
        assert all(type(t) is float for d in made for t in (d.x, d.y, d.z))
        assert all(type(t) is float for row in res.directions for t in row)
        assert all(type(s) is float for s in res.scores) and type(res.mi_score) is float
        assert all(type(m) is int for row in res.counts for m in row)


class TestEvaluateTrial:
    # one trial is one row of the scoring that coarse trials and refinement share
    @staticmethod
    def _score(truth, trial, batch, seed, stream=(_STREAM_COARSE, 0)):
        params = ProtocolParams(1, batch, 0, NO_PRIOR, config=SamplerConfig(seed))
        (mi,), counts = _score_rows(truth, [(trial.x, trial.y, trial.z)], params, *stream)
        return mi, counts

    def test_aligned_trial_scores_high(self):
        d = direction_from_polar(1.2, 0.5)
        mi, _ = self._score(d, d, 100_000, 51)
        assert mi > 0.9

    def test_orthogonal_trial_scores_low(self):
        mi, _ = self._score(Z, Direction(1.0, 0.0, 0.0), 100_000, 53)
        assert mi < 0.01

    def test_deterministic(self):
        a = self._score(Z, direction_from_polar(0.4, 0.1), 1000, 5, stream=(_STREAM_COARSE, 3))
        b = self._score(Z, direction_from_polar(0.4, 0.1), 1000, 5, stream=(_STREAM_COARSE, 3))
        assert a == b

    def test_record_invariant_enforced(self):
        counts = CountTable(0, 5, 5, 0)
        with pytest.raises(ValueError):
            TrialRecord(0, Z, 0.5, counts)
        TrialRecord(0, Z, estimate_mutual_information(counts), counts)


class TestResolveSign:
    def test_flips_into_hemisphere(self):
        got, resolved = resolve_sign(Direction(0.0, 0.0, -1.0), POLE_PRIOR)
        assert got == Z and resolved

    def test_keeps_aligned_estimate(self):
        got, resolved = resolve_sign(Z, POLE_PRIOR)
        assert got == Z and resolved

    def test_disabled_prior_is_a_no_op(self):
        d = Direction(0.0, 0.0, -1.0)
        got, resolved = resolve_sign(d, NO_PRIOR)
        assert got == d and not resolved

    def test_idempotent(self, rng):
        for _ in range(100):
            d = random_direction(rng)
            prior = HemispherePrior.around(random_direction(rng))
            once = resolve_sign(d, prior)
            assert resolve_sign(once[0], prior) == once


class TestRefine:
    """The shrinking-cap ring search, seen through ``transfer_direction``."""

    def test_zero_rounds_return_the_resolved_coarse_first_maximum(self, rng):
        for seed in range(10):
            truth = random_direction(rng)
            prior = HemispherePrior.around(random_direction(rng)) if seed % 2 else NO_PRIOR
            res = transfer_direction(truth, ProtocolParams(12, 10, 0, prior, config=SamplerConfig(seed)))
            best = res.scores.index(max(res.scores))
            assert res.refine_evaluations == 0 and res.mi_score == res.scores[best]
            assert (res.direction, res.sign_resolved) == resolve_sign(Direction(*res.directions[best]), prior)

    def test_output_in_hemisphere(self, rng):
        for seed in range(5):
            truth = random_direction(rng)
            prior = HemispherePrior.around(random_direction(rng))
            res = transfer_direction(truth, ProtocolParams(50, 200, 3, prior, config=SamplerConfig(seed)))
            for x, y, z in res.directions:
                assert abs(x * x + y * y + z * z - 1.0) < 1e-12
            out = res.direction
            assert abs(out.x**2 + out.y**2 + out.z**2 - 1.0) < 1e-12
            assert prior.pole.dot(out) >= 0.0

    def test_tie_breaks_to_lowest_index(self, monkeypatch):
        # with every score equal each phase keeps its first row, and a ring's
        # first row is its center, so the search never leaves the first trial
        monkeypatch.setattr(protocol, "analytic_mutual_information", np.zeros_like)
        params = ProtocolParams(12, 1, 3, NO_PRIOR, mode="exact")
        res = transfer_direction(direction_from_polar(0.9, 0.2), params)
        assert res.direction == Direction(*res.directions[0]) == generate_trial_directions(12, NO_PRIOR)[0]
        assert res.mi_score == 0.0
        starts = [i for i, phase in enumerate(res.phases) if i == 0 or phase != res.phases[i - 1]]
        assert len(starts) == 4 and {res.directions[i] for i in starts} == {res.directions[0]}

    def test_invariant_under_monotone_transform(self, rng, monkeypatch):
        mi = protocol.analytic_mutual_information
        params = ProtocolParams(30, 1, 4, HemispherePrior.around(random_direction(rng)), mode="exact")
        truths = [random_direction(rng) for _ in range(10)]
        plain = [transfer_direction(t, params).direction for t in truths]
        monkeypatch.setattr(protocol, "analytic_mutual_information", lambda c: 2.0 * mi(c) + 1.0)
        assert [transfer_direction(t, params).direction for t in truths] == plain

    def test_improves_on_coarse_in_most_runs(self):
        # sampled mode, rounds=4, N=50 coarse grid: refined error beats the
        # coarse-only error in at least 80% of 20 seeded runs (observed 20/20)
        truth = direction_from_polar(1.1, 0.7)
        prior = HemispherePrior.around(direction_from_polar(0.8, 0.4))
        improved = 0
        for run in range(20):
            params = ProtocolParams(50, 10_000, 4, prior, config=SamplerConfig(7000 + run))
            coarse = transfer_direction(truth, replace(params, refine_rounds=0)).direction
            refined = transfer_direction(truth, params).direction
            if _angle_up_to_sign(refined, truth) < _angle_up_to_sign(coarse, truth):
                improved += 1
        assert improved >= 16

    @pytest.mark.parametrize("n_trials, rounds", [(8, 2), (20, 4), (50, 6), (200, 8)])
    def test_exact_mode_contracts_to_resolution(self, rng, n_trials, rounds):
        params = ProtocolParams(n_trials, 1, rounds, NO_PRIOR, mode="exact")
        for _ in range(20):
            truth = random_direction(rng)
            assert _angle_up_to_sign(transfer_direction(truth, params).direction, truth) <= params.resolution()


class TestAntipodalSymmetry:
    def test_exact_scores_equal_under_negation(self, rng):
        truth = random_direction(rng)
        for _ in range(50):
            v = random_direction(rng)
            score, flipped = (analytic_mutual_information(cos_angle(truth, w)) for w in (v, -v))
            assert score == flipped


class TestProtocolParams:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(10, 10, 1, NO_PRIOR, mode="bogus")

    def test_sampled_requires_config(self):
        with pytest.raises(ValueError):
            ProtocolParams(10, 10, 1, NO_PRIOR, mode="sampled", config=None)

    def test_resolution_halves_per_round(self):
        p = ProtocolParams(50, 10, 4, NO_PRIOR, mode="exact")
        assert p.initial_half_angle() == 1.5 * math.sqrt(4.0 / 50)
        assert replace(p, prior=POLE_PRIOR).initial_half_angle() == 1.5 * math.sqrt(2.0 / 50)
        assert p.resolution() == p.initial_half_angle() * 0.5**3
        assert replace(p, refine_rounds=0).resolution() == p.initial_half_angle()

    @pytest.mark.parametrize("prior", [NO_PRIOR, POLE_PRIOR], ids=["no-prior", "prior"])
    def test_initial_half_angle_shrinks_with_the_layout(self, prior):
        caps = [ProtocolParams(n, 1, 1, prior, mode="exact").initial_half_angle() for n in (1, 2, 10, 100, 10**6)]
        assert all(math.isfinite(c) and c > 0.0 for c in caps)
        assert caps == sorted(caps, reverse=True) and len(set(caps)) == len(caps)

    def test_bounds(self):
        with pytest.raises(ValueError):
            ProtocolParams(0, 10, 1, NO_PRIOR, mode="exact")
        with pytest.raises(ValueError):
            ProtocolParams(10, 0, 1, NO_PRIOR, mode="exact")
        with pytest.raises(ValueError):
            ProtocolParams(10, 10, -1, NO_PRIOR, mode="exact")

    @pytest.mark.parametrize("field", ["n_trials", "batch_size", "refine_rounds"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_counts_must_be_plain_ints(self, field, value):
        kwargs = {"n_trials": 10, "batch_size": 10, "refine_rounds": 1}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ProtocolParams(**kwargs, prior=NO_PRIOR, mode="exact")


class TestTransferDirection:
    def test_exact_mode_recovers_within_resolution(self, rng):
        for _ in range(20):
            truth = random_direction(rng)
            prior = HemispherePrior.around(tilted_pole(truth, rng))
            params = ProtocolParams(50, 1, 6, prior, mode="exact")
            res = transfer_direction(truth, params)
            assert _angle(res.direction, truth) <= params.resolution()
            assert res.sign_resolved

    def test_exact_mode_deterministic(self, rng):
        truth = random_direction(rng)
        params = ProtocolParams(50, 1, 5, HemispherePrior.around(tilted_pole(truth, rng)), mode="exact")
        assert transfer_direction(truth, params) == transfer_direction(truth, params)

    def test_sampled_mode_deterministic(self, rng):
        truth = random_direction(rng)
        params = ProtocolParams(
            20, 500, 2, HemispherePrior.around(tilted_pole(truth, rng)),
            config=SamplerConfig(77), mode="sampled",
        )
        assert transfer_direction(truth, params) == transfer_direction(truth, params)

    def test_result_always_in_prior_hemisphere(self, rng):
        for seed in range(10):
            truth = random_direction(rng)
            prior = HemispherePrior.around(random_direction(rng))
            params = ProtocolParams(15, 200, 2, prior, config=SamplerConfig(seed), mode="sampled")
            res = transfer_direction(truth, params)
            assert prior.pole.dot(res.direction) >= 0.0

    def test_disabled_prior_recovers_up_to_sign(self, rng):
        signs = set()
        for _ in range(40):
            truth = random_direction(rng)
            params = ProtocolParams(50, 1, 6, NO_PRIOR, mode="exact")
            res = transfer_direction(truth, params)
            dot = cos_angle(res.direction, truth)
            assert abs(dot) > math.cos(params.resolution())
            assert not res.sign_resolved
            signs.add(1 if dot > 0 else -1)
        assert signs == {1, -1}

    def test_budget_accounting(self):
        truth = direction_from_polar(0.9, 0.2)
        params = ProtocolParams(
            12, 300, 2, HemispherePrior.around(truth),
            config=SamplerConfig(5), mode="sampled",
        )
        res = transfer_direction(truth, params)
        assert res.refine_evaluations == 2 * 9
        assert res.singlets_used == (12 + res.refine_evaluations) * 300
        assert len(res.trials) == 12

    def test_exact_mode_consumes_no_singlets(self):
        truth = direction_from_polar(0.9, 0.2)
        params = ProtocolParams(12, 300, 2, HemispherePrior.around(truth), mode="exact")
        res = transfer_direction(truth, params)
        assert res.singlets_used == 0
        assert all(t.counts is None for t in res.trials)

    def test_coarse_and_refine_streams_match_the_public_steps(self):
        # the coarse trials are one multinomial over the layout from
        # child(_STREAM_COARSE), refinement round r one over its 9 rows from
        # child(_STREAM_REFINE, r)
        truth = direction_from_polar(0.9, 0.2)
        cfg = SamplerConfig(61)
        params = ProtocolParams(
            8, 700, 2, HemispherePrior.around(direction_from_polar(0.7, 0.5)), config=cfg, mode="sampled",
        )
        res = transfer_direction(truth, params)

        def singlet_pvals(rows):
            cosines = [cos_angle(truth, Direction(*row)) for row in rows]
            return [((1.0 - c) / 4.0, (1.0 + c) / 4.0, (1.0 + c) / 4.0, (1.0 - c) / 4.0) for c in cosines]

        layout = [(d.x, d.y, d.z) for d in generate_trial_directions(8, params.prior)]
        coarse = cfg.child(_STREAM_COARSE).generator().multinomial(700, singlet_pvals(layout))
        assert [(t.counts.m_pp, t.counts.m_pm, t.counts.m_mp, t.counts.m_mm) for t in res.trials] == [
            tuple(row) for row in coarse.tolist()
        ]
        assert list(res.directions[:8]) == layout
        for r in range(2):
            rows = [i for i, phase in enumerate(res.phases) if phase == (_STREAM_REFINE, r)]
            assert len(rows) == RING_SIZE + 1
            ring = cfg.child(_STREAM_REFINE, r).generator().multinomial(
                700, singlet_pvals([res.directions[i] for i in rows]),
            )
            assert [res.counts[i] for i in rows] == [tuple(row) for row in ring.tolist()]

    def test_pinned_sampled_transfer_golden(self):
        # regression pin for a whole sampled transfer (coarse and refinement
        # streams, full 64-bit seed and stream id)
        params = ProtocolParams(
            10, 5000, 3, HemispherePrior.around(direction_from_polar(0.8, 0.9)),
            config=SamplerConfig(2**64 - 3, 2**63 + 1), mode="sampled",
        )
        res = transfer_direction(direction_from_polar(1.1, 0.4), params)
        assert (res.direction.x, res.direction.y, res.direction.z) == (
            0.8294647092183367, 0.30049251215948136, 0.47084237946198526,
        )
        assert res.mi_score == 0.9953066833062586
        assert [(t.counts.m_pp, t.counts.m_pm, t.counts.m_mp, t.counts.m_mm) for t in res.trials] == [
            (151, 2382, 2305, 162), (424, 2052, 2079, 445), (18, 2400, 2564, 18), (839, 1652, 1662, 847),
            (518, 1952, 2058, 472), (447, 2058, 2083, 412), (1317, 1232, 1132, 1319), (419, 2077, 2113, 391),
            (1176, 1287, 1277, 1260), (1338, 1155, 1148, 1359),
        ]
        assert res.counts[-9:] == (
            (12, 2489, 2485, 14), (48, 2456, 2457, 39), (58, 2437, 2441, 64), (70, 2461, 2408, 61),
            (40, 2499, 2407, 54), (14, 2501, 2460, 25), (3, 2522, 2471, 4), (0, 2502, 2496, 2), (17, 2532, 2438, 13),
        )
        assert (res.singlets_used, res.refine_evaluations) == (185000, 27)

    # sampled at four batch sizes and exact, each with the prior on and off
    # and with and without jitter: 20 transfers, 35 evaluations each
    PINNED_GRID = [
        (mode, batch, prior, jitter)
        for mode, batch in [("sampled", 10**2), ("sampled", 10**5), ("sampled", 10**8), ("sampled", 10**12),
                            ("exact", 10)]
        for prior in (HemispherePrior.around(direction_from_polar(0.8, 0.9)), NO_PRIOR)
        for jitter in (None, 2**64 - 7)
    ]

    def test_pinned_transfer_grid_sha256(self):
        # every field of every result, by repr, so a changed bit or type shows
        digest = hashlib.sha256()
        for i, (mode, batch, prior, jitter) in enumerate(self.PINNED_GRID):
            params = ProtocolParams(
                8, batch, 3, prior, config=SamplerConfig(2**64 - 3 - i, 2**63 + i) if mode == "sampled" else None,
                mode=mode, jitter_seed=jitter,
            )
            res = transfer_direction(direction_from_polar(1.1 + 0.1 * i, 0.4 - 0.3 * i), params)
            digest.update(repr([getattr(res, f.name) for f in fields(res)]).encode())
        assert digest.hexdigest() == "310a9473ecfa0f554ae9941cb92a24193bee7de260c95b63aee5d66f8b3d4a65"

    def test_one_philox_per_sampled_transfer(self, monkeypatch):
        # guards the fixed cost per evaluation: each of the 1 + refine_rounds
        # phases is one fold of its stream path and one multinomial, and all
        # of them and the layout's jitter re-key the thread's one bit
        # generator, which only the thread's first transfer may build; a
        # fresh thread shows that build
        built, folds, draws = [], [], []
        philox, fold = np.random.Philox, sampler._fold

        def counting_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        def counting_fold(*args):
            folds.append(args)
            return fold(*args)

        class CountingGenerator(np.random.Generator):
            def multinomial(self, *args, **kwargs):
                draws.append(args)
                return super().multinomial(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        monkeypatch.setattr(sampler, "_fold", counting_fold)
        params = ProtocolParams(
            12, 300, 2, HemispherePrior.around(direction_from_polar(0.7, 0.5)), config=SamplerConfig(5), mode="sampled",
            jitter_seed=2**63 + 3,
        )
        per_transfer = 1 + params.refine_rounds

        def counted_transfer(config):
            res = transfer_direction(direction_from_polar(0.9, 0.2), replace(params, config=config))
            return len(res.trials) + res.refine_evaluations, (len(built), len(draws), len(folds))

        with ThreadPoolExecutor(max_workers=1) as pool:  # one new thread runs both transfers
            evaluations, first = pool.submit(counted_transfer, SamplerConfig(5)).result(timeout=60)
            _, second = pool.submit(counted_transfer, SamplerConfig(6)).result(timeout=60)
        assert evaluations == 30
        assert first[1] == first[2] == per_transfer and first[0] <= 1
        assert second == (first[0], 2 * per_transfer, 2 * per_transfer)
        SamplerConfig(1).generator().multinomial(3, [0.5, 0.5])
        SamplerConfig(1).child(4)
        # the counters see every construction, draw and fold
        assert (len(built), len(draws), len(folds)) == (first[0] + 1, 2 * per_transfer + 1, 2 * per_transfer + 1)

    def test_cell_rule_runs_once_per_phase(self, monkeypatch):
        # guards the fixed cost around each phase's draw: one call of the cell
        # rule builds every row's cells, and only a cosine that is not a float
        # in [-1, 1] pays for core._checked_cos; the target is the prior's pole,
        # so the first coarse row's cosine drifts to 1 + 2**-52
        calls, checked = [], []
        rule, check = sampler._singlet_cells, core._checked_cos

        def counting_rule(*args):
            calls.append(args)
            return rule(*args)

        def counting_check(value):
            checked.append(value)
            return check(value)

        monkeypatch.setattr(sampler, "_singlet_cells", counting_rule)
        monkeypatch.setattr(core, "_checked_cos", counting_check)
        alice = Direction(-0.3189955931121168, -0.9151276456241726, -0.24654249895181915)
        params = ProtocolParams(50, 1000, 3, HemispherePrior.around(alice), config=SamplerConfig(9))
        res = transfer_direction(alice, params)
        assert len(calls) == 1 + params.refine_rounds
        drift = [c for c in _dots(alice, res.directions) if not -1.0 <= c <= 1.0]
        assert drift and checked == drift

    def test_one_philox_per_record_thread(self, monkeypatch):
        # the record sampler re-keys the same bit generator: only a thread's
        # first draw builds one, and a fresh thread shows that build
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        y = direction_from_polar(0.9, 0.2)

        def counted_draws():
            sampler.run_measurement_batch(Z, y, 10, SamplerConfig(5))
            first = len(built)
            for i in range(3):
                sampler.run_measurement_batch(Z, y, 3 * sampler._DRAW_PAIRS + 5, SamplerConfig(6, i))
            return first, len(built)

        with ThreadPoolExecutor(max_workers=1) as pool:  # one new thread makes every draw
            assert pool.submit(counted_draws).result(timeout=60) == (1, 1)

    def test_concurrent_threads_give_the_serial_results(self):
        # each thread re-keys its own Philox, so draws made at the same time cannot take each other's key
        prior = HemispherePrior.around(direction_from_polar(0.7, 0.5))
        frame = (Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0), Direction(0.0, 0.0, 1.0))

        def directions():
            return [
                transfer_direction(direction_from_polar(0.2 + 0.1 * i, 0.3 * i),
                                   ProtocolParams(12, 10**5, 3, prior, config=SamplerConfig(100 + i, i)))
                for i in range(20)
            ]

        def frames():
            return [transfer_frame(frame, ProtocolParams(8, 500, 2, NO_PRIOR, config=SamplerConfig(200 + i)))
                    for i in range(20)]

        serial = [directions(), frames()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            # two threads of each kind, all switching often
            with ThreadPoolExecutor(max_workers=4) as pool:
                running = [pool.submit(work) for work in (directions, frames, directions, frames)]
                concurrent = [f.result(timeout=120) for f in running]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial * 2

    def test_result_rows_hold_every_evaluation(self):
        truth = direction_from_polar(0.9, 0.2)
        params = ProtocolParams(
            12, 300, 2, HemispherePrior.around(direction_from_polar(0.7, 0.5)), config=SamplerConfig(5), mode="sampled",
        )
        res = transfer_direction(truth, params)
        assert "trials" not in vars(res)  # the records are built on first read
        assert res.trials is res.trials and len(res.trials) == 12
        assert res.phases == ((_STREAM_COARSE, 0),) * 12 + ((_STREAM_REFINE, 0),) * 9 + ((_STREAM_REFINE, 1),) * 9
        assert len(res.directions) == len(res.scores) == len(res.counts) == 30
        for d, s, c in zip(res.directions, res.scores, res.counts):
            assert s == estimate_mutual_information(CountTable(*c)) and sum(c) == 300
            unit = Direction(*d)
            assert (unit.x, unit.y, unit.z) == d  # rows are unit as Direction leaves them
        for i, t in enumerate(res.trials):
            assert (t.direction.x, t.direction.y, t.direction.z) == res.directions[i]
            assert (t.mi_estimate, t.counts) == (res.scores[i], CountTable(*res.counts[i]))
        # each refinement round opens with its center, the previous round's winner
        best = max(range(12, 21), key=lambda i: (res.scores[i], -i))
        assert res.directions[21] == res.directions[best]
        assert res.mi_score == max(res.scores[21:])
        assert transfer_direction(truth, params) == res

    def test_exact_rows_hold_closed_form_scores(self):
        truth = direction_from_polar(0.9, 0.2)
        res = transfer_direction(truth, ProtocolParams(12, 300, 2, HemispherePrior.around(truth), mode="exact"))
        assert res.counts is None and len(res.scores) == 30
        for d, s in zip(res.directions, res.scores):
            assert s == analytic_mutual_information(cos_angle(truth, Direction(*d)))

    def test_trial_records_carry_plug_in_scores(self):
        truth = direction_from_polar(0.9, 0.2)
        params = ProtocolParams(
            6, 400, 0, HemispherePrior.around(truth), config=SamplerConfig(9), mode="sampled",
        )
        res = transfer_direction(truth, params)
        for t in res.trials:
            assert t.mi_estimate == estimate_mutual_information(t.counts)


class TestLargeBatches:
    """A draw's cost does not depend on the batch, so batches of 1e8 and 1e12 singlets are cheap to test."""

    @staticmethod
    def _check_rows(res, batch, n_rows):
        assert len(res.counts) == len(res.scores) == n_rows
        for s, c in zip(res.scores, res.counts):
            assert sum(c) == batch
            assert 0.0 <= s <= 1.0 and s == estimate_mutual_information(CountTable(*c))
        assert res.singlets_used == n_rows * batch

    @pytest.mark.parametrize("batch", [10**8, 10**12])
    def test_sampled_transfer(self, batch):
        truth = direction_from_polar(1.1, 0.4)
        params = ProtocolParams(
            50, batch, 3, HemispherePrior.around(direction_from_polar(0.8, 0.9)),
            config=SamplerConfig(2**64 - 7, 3), mode="sampled",
        )
        res = transfer_direction(truth, params)
        self._check_rows(res, batch, 50 + 3 * (RING_SIZE + 1))
        assert _angle(res.direction, truth) <= params.resolution()
        assert transfer_direction(truth, params) == res

    def test_sampled_frame(self):
        frame = (Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0), Direction(0.0, 0.0, 1.0))
        priors = tuple(HemispherePrior.around(tilted_pole(a, np.random.default_rng(k))) for k, a in enumerate(frame))
        params = ProtocolParams(50, 10**8, 3, NO_PRIOR, config=SamplerConfig(11), mode="sampled")
        est = transfer_frame(frame, params, orthonormalize=True, priors=priors)
        for res in est.axis_results:
            self._check_rows(res, 10**8, 50 + 3 * (RING_SIZE + 1))
        assert transfer_frame(frame, params, orthonormalize=True, priors=priors) == est


class TestTransferFrame:
    IDENTITY = (Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0), Direction(0.0, 0.0, 1.0))

    def test_exact_mode_axis_aligned_priors(self):
        params = ProtocolParams(50, 1, 6, NO_PRIOR, mode="exact")
        est = transfer_frame(
            self.IDENTITY, params,
            priors=tuple(HemispherePrior.around(a) for a in self.IDENTITY),
        )
        for axis, truth in zip(est.axes, self.IDENTITY):
            assert _angle(axis, truth) <= params.resolution()

    def test_exact_mode_tilted_priors(self, rng):
        params = ProtocolParams(50, 1, 6, NO_PRIOR, mode="exact")
        priors = tuple(HemispherePrior.around(tilted_pole(a, rng)) for a in self.IDENTITY)
        est = transfer_frame(self.IDENTITY, params, priors=priors)
        for axis, truth in zip(est.axes, self.IDENTITY):
            assert _angle(axis, truth) <= params.resolution()

    def test_orthonormalized_axes_are_orthogonal(self, rng):
        params = ProtocolParams(
            20, 400, 2, NO_PRIOR, config=SamplerConfig(13), mode="sampled",
        )
        priors = tuple(HemispherePrior.around(tilted_pole(a, rng)) for a in self.IDENTITY)
        est = transfer_frame(self.IDENTITY, params, orthonormalize=True, priors=priors)
        assert est.orthonormalized
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(est.axes[i].dot(est.axes[j])) < 1e-10

    def test_orthonormalized_axes_hold_python_floats(self):
        # as the per-axis results do; the rows of the polar factor are numpy floats
        params = ProtocolParams(8, 100, 1, NO_PRIOR, config=SamplerConfig(4))
        est = transfer_frame(self.IDENTITY, params, orthonormalize=True)
        assert all(type(t) is float for axis in est.axes for t in (axis.x, axis.y, axis.z))

    def test_orthonormalized_axes_stay_in_their_hemispheres(self, rng):
        # the polar factor can push a noisy axis across its pole's equator;
        # at these sizes about 1 in 100 axes was left outside before each
        # projected axis was put back in its hemisphere
        params = ProtocolParams(6, 20, 1, NO_PRIOR, mode="sampled", config=SamplerConfig(0))
        flipped = 0
        for i in range(300):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            frame = tuple(Direction(*row) for row in (q * np.sign(np.diagonal(r))).T)
            priors = tuple(HemispherePrior.around(tilted_pole(a, rng)) for a in frame)
            est = transfer_frame(frame, replace(params, config=SamplerConfig(i)), orthonormalize=True, priors=priors)
            plain = [res.direction for res in est.axis_results]
            for axis, raw, prior in zip(est.axes, plain, priors):
                assert prior.pole.dot(axis) >= 0.0
                flipped += axis.dot(raw) < 0.0
        assert flipped > 0  # the sweep reaches the case it guards

    def test_sampled_mode_deterministic(self, rng):
        params = ProtocolParams(
            10, 300, 1, NO_PRIOR, config=SamplerConfig(19), mode="sampled",
        )
        priors = tuple(HemispherePrior.around(a) for a in self.IDENTITY)
        a = transfer_frame(self.IDENTITY, params, priors=priors)
        b = transfer_frame(self.IDENTITY, params, priors=priors)
        assert a == b

    def test_axes_use_distinct_streams(self):
        # two axes with the same truth direction should not see identical data
        frame = self.IDENTITY
        params = ProtocolParams(5, 200, 0, NO_PRIOR, config=SamplerConfig(23), mode="sampled")
        est = transfer_frame(frame, params)
        t0 = est.axis_results[0].trials[0].counts
        t1 = est.axis_results[1].trials[0].counts
        assert t0 != t1

    def test_non_orthonormal_frame_rejected(self):
        skewed = (Direction(1.0, 0.0, 0.0), Direction(0.9, 0.1, 0.0), Direction(0.0, 0.0, 1.0))
        params = ProtocolParams(5, 10, 0, NO_PRIOR, mode="exact")
        with pytest.raises(ValueError):
            transfer_frame(skewed, params)

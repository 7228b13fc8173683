import math
from dataclasses import replace

import numpy as np
import pytest

from singlet_frame import (
    CountTable,
    Direction,
    HemispherePrior,
    ProtocolParams,
    SamplerConfig,
    TrialRecord,
    cos_angle,
    default_initial_half_angle,
    direction_from_polar,
    estimate_mutual_information,
    evaluate_trial,
    generate_trial_directions,
    refine,
    refinement_resolution,
    resolve_sign,
    select_best,
    transfer_direction,
    transfer_frame,
)
from singlet_frame.protocol import _STREAM_COARSE, exact_trial_score
from conftest import random_direction, tilted_pole

Z = Direction(0.0, 0.0, 1.0)
POLE_PRIOR = HemispherePrior.around(Z)
NO_PRIOR = HemispherePrior.none()


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

    def test_full_sphere_covers_both_hemispheres(self):
        zs = [d.z for d in generate_trial_directions(40, NO_PRIOR)]
        assert min(zs) < -0.5 and max(zs) > 0.5

    def test_coverage_up_to_sign(self, rng):
        # every direction is within the default cap of some trial point
        dirs = generate_trial_directions(50, POLE_PRIOR)
        mat = np.vstack([d.as_array() for d in dirs])
        cap = default_initial_half_angle(50, hemisphere=True)
        for _ in range(500):
            v = random_direction(rng)
            gap = math.acos(min(1.0, float(np.max(np.abs(mat @ v.as_array())))))
            assert gap < 1.1 * cap


class TestEvaluateTrial:
    def test_aligned_trial_scores_high(self):
        d = direction_from_polar(1.2, 0.5)
        rec = evaluate_trial(d, d, 100_000, SamplerConfig(51))
        assert rec.mi_estimate > 0.9

    def test_orthogonal_trial_scores_low(self):
        rec = evaluate_trial(Z, Direction(1.0, 0.0, 0.0), 100_000, SamplerConfig(53))
        assert rec.mi_estimate < 0.01

    def test_deterministic(self):
        a = evaluate_trial(Z, direction_from_polar(0.4, 0.1), 1000, SamplerConfig(5), trial_index=3)
        b = evaluate_trial(Z, direction_from_polar(0.4, 0.1), 1000, SamplerConfig(5), trial_index=3)
        assert a == b

    def test_record_invariant_enforced(self):
        counts = CountTable.from_joint_counts(0, 5, 5, 0)
        with pytest.raises(ValueError):
            TrialRecord(0, Z, 0.5, counts)
        TrialRecord(0, Z, estimate_mutual_information(counts), counts)


class TestSelectBest:
    def _trials(self, scores):
        return [TrialRecord(i, direction_from_polar(0.1 * i, 0.0), s) for i, s in enumerate(scores)]

    def test_argmax(self):
        trials = self._trials([0.1, 0.9, 0.4])
        assert select_best(trials) == (trials[1].direction, 0.9)

    def test_tie_breaks_to_lowest_index(self):
        trials = self._trials([0.5, 0.5])
        assert select_best(trials)[0] == trials[0].direction

    def test_single(self):
        trials = self._trials([0.3])
        assert select_best(trials) == (trials[0].direction, 0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])

    def test_invariant_under_monotone_transform(self, rng):
        scores = [float(s) for s in rng.uniform(0.0, 1.0, size=10)]
        trials = self._trials(scores)
        transformed = self._trials([2.0 * s + 1.0 for s in scores])
        assert select_best(trials)[0] == select_best(transformed)[0]


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
    def test_zero_rounds_returns_input(self):
        d = direction_from_polar(0.5, 0.5)
        out = refine(d, Z, 0, 10, SamplerConfig(1), POLE_PRIOR)
        assert out == d

    def test_output_in_hemisphere(self, rng):
        for seed in range(5):
            truth = random_direction(rng)
            start = random_direction(rng)
            prior = HemispherePrior.around(random_direction(rng))
            start, _ = resolve_sign(start, prior)
            out = refine(start, truth, 3, 200, SamplerConfig(seed), prior)
            assert abs(out.x**2 + out.y**2 + out.z**2 - 1.0) < 1e-12
            assert prior.contains(out)

    def test_improves_on_coarse_in_most_runs(self):
        # sampled mode, rounds=4, N=50 coarse grid: refined error beats the
        # coarse-only error in at least 80% of 20 seeded runs (observed 20/20)
        truth = direction_from_polar(1.1, 0.7)
        prior = HemispherePrior.around(direction_from_polar(0.8, 0.4))
        improved = 0
        for run in range(20):
            cfg = SamplerConfig(7000 + run)
            dirs = generate_trial_directions(50, prior)
            trials = [
                evaluate_trial(truth, d, 10_000, cfg.child(_STREAM_COARSE, i), trial_index=i)
                for i, d in enumerate(dirs)
            ]
            coarse_dir, _ = select_best(trials)
            refined = refine(
                coarse_dir, truth, 4, 10_000, cfg, prior,
                initial_half_angle=default_initial_half_angle(50, True),
            )
            if _angle_up_to_sign(refined, truth) < _angle_up_to_sign(coarse_dir, truth):
                improved += 1
        assert improved >= 16

    def test_exact_mode_contracts_to_resolution(self, rng):
        for _ in range(20):
            truth = random_direction(rng)
            start_offset = tilted_pole(truth, rng, 5.0, 12.0)  # ~5-12 degrees away
            out = refine(start_offset, truth, 6, 1, None, NO_PRIOR, mode="exact", initial_half_angle=0.3)
            assert _angle_up_to_sign(out, truth) <= refinement_resolution(0.3, 6)


class TestAntipodalSymmetry:
    def test_exact_scores_equal_under_negation(self, rng):
        truth = random_direction(rng)
        for _ in range(50):
            v = random_direction(rng)
            assert exact_trial_score(truth, v) == exact_trial_score(truth, -v)


class TestProtocolParams:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(10, 10, 1, NO_PRIOR, mode="bogus")

    def test_sampled_requires_config(self):
        with pytest.raises(ValueError):
            ProtocolParams(10, 10, 1, NO_PRIOR, mode="sampled", config=None)

    def test_resolution_halves_per_round(self):
        p = ProtocolParams(50, 10, 4, NO_PRIOR, mode="exact", initial_half_angle=0.4)
        assert p.resolution() == 0.4 * 0.5**3
        assert replace(p, refine_rounds=0).resolution() == 0.4

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
            assert prior.contains(res.direction)

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
        # coarse trial i draws from child(_STREAM_COARSE, i) and the ring search
        # from child(_STREAM_REFINE, r, j): evaluate_trial and refine reproduce both
        truth = direction_from_polar(0.9, 0.2)
        cfg = SamplerConfig(61)
        params = ProtocolParams(
            8, 700, 2, HemispherePrior.around(direction_from_polar(0.7, 0.5)), config=cfg, mode="sampled",
        )
        res = transfer_direction(truth, params)
        for t in res.trials:
            assert t == evaluate_trial(
                truth, t.direction, 700, cfg.child(_STREAM_COARSE, t.trial_index), trial_index=t.trial_index,
            )
        refined = refine(
            select_best(res.trials)[0], truth, 2, 700, cfg, params.prior,
            initial_half_angle=params.resolved_initial_half_angle(),
        )
        assert res.direction == refined

    def test_trial_records_carry_plug_in_scores(self):
        truth = direction_from_polar(0.9, 0.2)
        params = ProtocolParams(
            6, 400, 0, HemispherePrior.around(truth), config=SamplerConfig(9), mode="sampled",
        )
        res = transfer_direction(truth, params)
        for t in res.trials:
            assert t.mi_estimate == estimate_mutual_information(t.counts)


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

import dataclasses
import math

import numpy as np
import pytest

from singlet_frame import (
    CountTable,
    Direction,
    JointDistribution2x2,
    OutcomeRecord,
    SamplerConfig,
    analytic_mutual_information,
    estimate_mutual_information,
    run_measurement_batch,
    singlet_joint_distribution,
    tally,
)

X = Direction(1.0, 0.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)


def _record(a, b):
    return OutcomeRecord(a=np.array(a), b=np.array(b), x=X, y=Z)


def _batch_at(c, m, seed):
    y = Direction(math.sqrt(1.0 - c * c), 0.0, c)
    return run_measurement_batch(Z, y, m, SamplerConfig(seed))


def _frequencies(t):
    """The plug-in joint estimate of a count table: each joint count over the total."""
    return JointDistribution2x2(*(m / t.total for m in dataclasses.astuple(t)))


def _marginal_frequencies(t):
    """(p(a=+1), p(a=-1), p(b=+1), p(b=-1)) estimated as each marginal count, a sum of joint counts, over the total."""
    marginals = (t.m_pp + t.m_pm, t.m_mp + t.m_mm, t.m_pp + t.m_mp, t.m_pm + t.m_mm)
    return tuple(m / t.total for m in marginals)


FIELDS = ("m_pp", "m_pm", "m_mp", "m_mm", "total")
ONE_PAIR = (1, 0, 0, 0)  # the joint counts of one (+1, +1) pair


class TestCountTable:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountTable(-1, 1, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CountTable(0, 0, 0, 0)

    def test_holds_the_four_joint_counts(self):
        assert [f.name for f in dataclasses.fields(CountTable)] == list(FIELDS[:4])

    @pytest.mark.parametrize("field", FIELDS[:4])
    @pytest.mark.parametrize("as_other_type", [bool, float, np.int64, str])
    def test_count_of_another_type_rejected(self, field, as_other_type):
        # the value is numerically right, so only the constructor's type check can reject it
        values = dict(zip(FIELDS, ONE_PAIR))
        values[field] = as_other_type(values[field])
        with pytest.raises(ValueError, match="nonnegative integers"):
            CountTable(**values)

    def test_int_subclass_counts_accepted(self):
        class Count(int):
            pass

        table = CountTable(*map(Count, ONE_PAIR))
        assert table == CountTable(1, 0, 0, 0)

    def test_derived_counts(self):
        t = CountTable(3, 1, 4, 1)
        assert tuple(getattr(t, key) for key in FIELDS) == (3, 1, 4, 1, 9)


class TestTally:
    def test_small_example(self):
        t = tally(_record([1, 1, -1], [-1, 1, 1]))
        assert (t.m_pp, t.m_pm, t.m_mp, t.m_mm) == (1, 1, 1, 0)
        assert t.total == 3

    def test_single_cell(self):
        t = tally(_record([1] * 10, [-1] * 10))
        assert (t.m_pp, t.m_pm, t.m_mp, t.m_mm) == (0, 10, 0, 0)

    def test_concatenation_additivity(self, rng):
        a = rng.choice([-1, 1], size=200)
        b = rng.choice([-1, 1], size=200)
        whole = tally(_record(a, b))
        head, tail = tally(_record(a[:80], b[:80])), tally(_record(a[80:], b[80:]))
        parts = CountTable(*(x + y for x, y in zip(dataclasses.astuple(head), dataclasses.astuple(tail))))
        assert whole == parts


class TestEstimateMarginals:
    def test_simple_ratio(self):
        t = CountTable(25, 25, 30, 20)
        pa_plus, pa_minus, pb_plus, pb_minus = _marginal_frequencies(t)
        assert pa_plus == 0.5 and pa_minus == 0.5
        assert pb_plus == 0.55 and pb_minus == 0.45

    def test_zero_count(self):
        t = CountTable(0, 4, 0, 3)
        assert _marginal_frequencies(t)[2] == 0.0  # p(b=+1)

    def test_pairs_sum_to_one_exactly(self):
        for total in range(1, 300):
            for m in (0, 1, total // 3, total // 2, total - 1, total):
                assert m / total + (total - m) / total == 1.0

    def test_batch_marginals_near_half(self):
        rec = _batch_at(0.3, 100_000, seed=31)
        for est in _marginal_frequencies(tally(rec)):
            assert abs(est - 0.5) < 0.01


class TestEstimateJoint:
    def test_anticorrelated_counts(self):
        d = _frequencies(CountTable(0, 50, 50, 0))
        assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == (0.0, 0.5, 0.5, 0.0)

    def test_uniform_counts(self):
        d = _frequencies(CountTable(25, 25, 25, 25))
        assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == (0.25, 0.25, 0.25, 0.25)

    def test_batch_joint_within_standard_errors(self):
        m = 100_000
        rec = _batch_at(0.5, m, seed=37)
        est = _frequencies(tally(rec))
        truth = singlet_joint_distribution(0.5)
        for a in (-1, 1):
            for b in (-1, 1):
                p = truth.prob(a, b)
                se = math.sqrt(p * (1.0 - p) / m)
                assert abs(est.prob(a, b) - p) < 5.0 * se


class TestEstimateMutualInformation:
    def test_anticorrelated_counts_give_one(self):
        assert estimate_mutual_information(CountTable(0, 50, 50, 0)) == 1.0

    def test_uniform_counts_give_zero(self):
        assert estimate_mutual_information(CountTable(25, 25, 25, 25)) == 0.0

    def test_factorizing_counts_give_exact_zero(self):
        # joint counts equal to the outer product of the marginals
        for (pp, pm, mp, mm) in [(1, 2, 2, 4), (6, 2, 3, 1), (10, 10, 10, 10), (9, 3, 6, 2)]:
            t = CountTable(pp, pm, mp, mm)
            assert pp * (pp + pm + mp + mm) == (pp + pm) * (pp + mp)
            assert estimate_mutual_information(t) == 0.0

    def test_nonnegative_on_random_tables(self, rng):
        for _ in range(300):
            counts = rng.integers(0, 40, size=4)
            if counts.sum() == 0:
                continue
            t = CountTable(*(int(v) for v in counts))
            assert 0.0 <= estimate_mutual_information(t) <= 1.0

    def test_permutation_invariant(self, rng):
        rec = _batch_at(0.6, 1000, seed=41)
        perm = rng.permutation(len(rec))
        shuffled = OutcomeRecord(a=rec.a[perm], b=rec.b[perm], x=rec.x, y=rec.y)
        assert estimate_mutual_information(tally(shuffled)) == estimate_mutual_information(tally(rec))

    def test_large_batch_near_analytic(self):
        rec = _batch_at(0.9, 100_000, seed=43)
        got = estimate_mutual_information(tally(rec))
        assert abs(got - analytic_mutual_information(0.9)) < 0.01

    def test_positive_small_sample_bias(self):
        # no bias correction is applied: at independence the plug-in estimate
        # is strictly positive and its mean shrinks roughly like 1/M
        means = []
        for m in (100, 1_000, 10_000):
            vals = [
                estimate_mutual_information(tally(_batch_at(0.0, m, seed=900 + s)))
                for s in range(40)
            ]
            assert all(v >= 0.0 for v in vals)
            means.append(float(np.mean(vals)))
        assert means[0] > means[1] > means[2] > 0.0

    def test_median_error_shrinks_with_batch_size(self):
        truth = analytic_mutual_information(0.9)
        medians = []
        for m in (1_000, 10_000, 100_000):
            errors = [
                abs(estimate_mutual_information(tally(_batch_at(0.9, m, seed=500 + s))) - truth)
                for s in range(10)
            ]
            medians.append(float(np.median(errors)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_matches_float_formula(self, rng):
        # integer-ratio evaluation agrees with the plain float evaluation
        from singlet_frame import mutual_information_from_joint

        for _ in range(100):
            counts = rng.integers(1, 50, size=4)
            t = CountTable(*(int(v) for v in counts))
            direct = mutual_information_from_joint(JointDistribution2x2(*(int(v) / t.total for v in counts)))
            assert estimate_mutual_information(t) == pytest.approx(direct, abs=1e-12)

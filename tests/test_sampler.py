import math

import numpy as np
import pytest
from scipy import stats

from singlet_frame import (
    Direction,
    DomainError,
    OutcomeRecord,
    SamplerConfig,
    direction_from_polar,
    run_measurement_batch,
    sample_joint_counts,
    sample_outcome_pair,
    singlet_joint_distribution,
    tally,
)

Z = Direction(0.0, 0.0, 1.0)
X = Direction(1.0, 0.0, 0.0)


class _FixedUniform:
    """Generator stand-in returning scripted uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class TestSamplerConfig:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(-1)
        with pytest.raises(ValueError):
            SamplerConfig(2**64)
        with pytest.raises(ValueError):
            SamplerConfig(0, stream_id=-5)

    def test_child_deterministic_and_distinct(self):
        cfg = SamplerConfig(42, 0)
        assert cfg.child(0, 1) == cfg.child(0, 1)
        seen = {cfg.child(i, j).stream_id for i in range(4) for j in range(50)}
        assert len(seen) == 200
        assert cfg.child(0, 1) != cfg.child(1, 0)

    def test_child_rejects_negative_index(self):
        with pytest.raises(ValueError):
            SamplerConfig(42).child(-1)

    def test_generator_keeps_full_64_bit_key(self):
        # keys at or above 2**63 must reach Philox exactly, not through float64
        for seed, stream in ((2**64 - 1, 2**63 + 1), (2**63 - 1, 2**63), (5, 2**64 - 2)):
            key = SamplerConfig(seed, stream).generator().bit_generator.state["state"]["key"]
            assert key.tolist() == [seed, stream]


class TestSampleOutcomePair:
    def test_parallel_cumulative_boundaries(self):
        # c=1: boundaries (0, 0.5, 1.0, 1.0); u=0.3 falls in the (+,-) slot
        assert sample_outcome_pair(1.0, _FixedUniform([0.3])) == (1, -1)
        assert sample_outcome_pair(1.0, _FixedUniform([0.7])) == (-1, 1)

    def test_orthogonal_category_order(self):
        # c=0: quarter-width slots in the fixed order (+,+), (+,-), (-,+), (-,-)
        draws = _FixedUniform([0.1, 0.3, 0.6, 0.9])
        assert sample_outcome_pair(0.0, draws) == (1, 1)
        assert sample_outcome_pair(0.0, draws) == (1, -1)
        assert sample_outcome_pair(0.0, draws) == (-1, 1)
        assert sample_outcome_pair(0.0, draws) == (-1, -1)

    def test_parallel_always_anticorrelated(self):
        gen = SamplerConfig(7).generator()
        for _ in range(100):
            a, b = sample_outcome_pair(1.0, gen)
            assert a * b == -1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sample_outcome_pair(1.5, _FixedUniform([0.5]))

    def test_orthogonal_frequencies(self):
        gen = SamplerConfig(11).generator()
        n = 100_000
        counts = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
        for _ in range(n):
            counts[sample_outcome_pair(0.0, gen)] += 1
        se = math.sqrt(0.25 * 0.75 / n)
        for v in counts.values():
            assert abs(v / n - 0.25) < 4.0 * se


class TestRunMeasurementBatch:
    def test_equal_settings_anticorrelated(self):
        rec = run_measurement_batch(Z, Z, 100, SamplerConfig(3))
        assert np.all(rec.products() == -1)

    def test_deterministic(self):
        rec1 = run_measurement_batch(X, Z, 500, SamplerConfig(5, 9))
        rec2 = run_measurement_batch(X, Z, 500, SamplerConfig(5, 9))
        assert rec1 == rec2

    def test_streams_differ(self):
        rec1 = run_measurement_batch(X, Z, 500, SamplerConfig(5, 1))
        rec2 = run_measurement_batch(X, Z, 500, SamplerConfig(5, 2))
        assert rec1 != rec2

    def test_batch_equals_sequential_singles(self):
        x = direction_from_polar(1.0, 0.3)
        y = direction_from_polar(0.4, 2.0)
        cfg = SamplerConfig(21, 4)
        rec = run_measurement_batch(x, y, 64, cfg)
        gen = cfg.generator()
        c = x.dot(y)
        singles = [sample_outcome_pair(c, gen) for _ in range(64)]
        assert list(rec.pairs()) == singles

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            run_measurement_batch(X, Z, 0, SamplerConfig(1))

    def test_moment_at_half(self):
        x = Direction(1.0, 0.0, 0.0)
        y = Direction(0.5, 0.0, math.sqrt(3.0) / 2.0)  # cos = 0.5
        m = 1_000_000
        rec = run_measurement_batch(x, y, m, SamplerConfig(17))
        mean = float(np.mean(rec.products()))
        assert abs(mean + 0.5) < 4.0 / math.sqrt(m)

    def test_joint_frequencies_and_marginals(self):
        m = 100_000
        for c in (-0.9, 0.0, 0.7):
            y = Direction(math.sqrt(1.0 - c * c), 0.0, c)  # cos(Z, y) = c
            rec = run_measurement_batch(Z, y, m, SamplerConfig(23, 1))
            dist = singlet_joint_distribution(c)
            for a in (-1, 1):
                for b in (-1, 1):
                    freq = np.count_nonzero((rec.a == a) & (rec.b == b)) / m
                    p = dist.prob(a, b)
                    se = math.sqrt(p * (1.0 - p) / m)
                    assert abs(freq - p) < 5.0 * se
            se_half = math.sqrt(0.25 / m)
            assert abs(np.count_nonzero(rec.a == 1) / m - 0.5) < 5.0 * se_half
            assert abs(np.count_nonzero(rec.b == 1) / m - 0.5) < 5.0 * se_half

    def test_pinned_generator_golden_sequence(self):
        # regression pin for the documented philox4x64 stream
        rec = run_measurement_batch(Z, X, 12, SamplerConfig(42, 0))
        assert rec.a.tolist() == [-1, 1, -1, 1, 1, 1, 1, 1, -1, -1, 1, 1]
        assert rec.b.tolist() == [-1, 1, -1, -1, -1, -1, 1, 1, -1, -1, -1, 1]


class _FixedDot:
    """Setting stand-in whose dot product with anything is ``value``."""

    def __init__(self, value):
        self.value = value

    def dot(self, other):
        return self.value


class TestSampleJointCounts:
    def test_pinned_count_stream_golden(self):
        # regression pin for the count stream; the per-pair pin above is separate
        assert sample_joint_counts(Z, X, 1000, SamplerConfig(42, 0)) == (256, 262, 244, 238)

    def test_deterministic_and_streams_differ(self):
        y = direction_from_polar(0.4, 2.0)
        assert sample_joint_counts(Z, y, 500, SamplerConfig(5, 9)) == sample_joint_counts(Z, y, 500, SamplerConfig(5, 9))
        assert sample_joint_counts(Z, y, 500, SamplerConfig(5, 1)) != sample_joint_counts(Z, y, 500, SamplerConfig(5, 2))

    def test_plain_int_counts_summing_to_batch(self):
        counts = sample_joint_counts(Z, direction_from_polar(1.0, 0.3), 10**8, SamplerConfig(3))
        assert all(type(m) is int and m >= 0 for m in counts)
        assert sum(counts) == 10**8

    def test_parallel_settings_never_agree(self):
        # c = +1: the (+,+) and (-,-) cells are forbidden
        m_pp, m_pm, m_mp, m_mm = sample_joint_counts(Z, Z, 10_000, SamplerConfig(8))
        assert m_pp == 0 and m_mm == 0 and m_pm + m_mp == 10_000

    def test_antiparallel_settings_always_agree(self):
        # c = -1: the (+,-) and (-,+) cells are forbidden
        m_pp, m_pm, m_mp, m_mm = sample_joint_counts(Z, -Z, 10_000, SamplerConfig(8))
        assert m_pm == 0 and m_mp == 0 and m_pp + m_mm == 10_000

    @pytest.mark.parametrize("draw", [sample_joint_counts, run_measurement_batch])
    @pytest.mark.parametrize("batch_size", [0, -3, 2.5, 1.0, True, "10", None])
    def test_bad_batch_size_rejected_by_both_samplers(self, draw, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            draw(Z, X, batch_size, SamplerConfig(1))

    @pytest.mark.parametrize("cosine", [1.5, -1.0 - 1e-9, math.nan, math.inf])
    def test_bad_cosine_rejected(self, cosine):
        with pytest.raises(DomainError):
            sample_joint_counts(_FixedDot(cosine), X, 10, SamplerConfig(1))

    def test_cosine_drift_clamped(self):
        m_pp, _, _, m_mm = sample_joint_counts(_FixedDot(1.0 + 1e-13), X, 100, SamplerConfig(1))
        assert m_pp == m_mm == 0

    @pytest.mark.parametrize("c", [-0.6, 0.3])
    def test_same_distribution_as_tallied_pairs(self, c):
        # chi-square homogeneity test on the (m_pp, m_pm) cells of a small
        # batch: count draws against tallies of per-pair batches, each over
        # 3000 fixed streams
        y = Direction(math.sqrt(1.0 - c * c), 0.0, c)
        batch, runs = 6, 3000
        draws = {"counts": [], "pairs": []}
        for i in range(runs):
            draws["counts"].append(sample_joint_counts(Z, y, batch, SamplerConfig(901, i))[:2])
            t = tally(run_measurement_batch(Z, y, batch, SamplerConfig(902, i)))
            draws["pairs"].append((t.m_pp, t.m_pm))
        cells = sorted(set(draws["counts"]) | set(draws["pairs"]))
        table = np.array([[rows.count(cell) for cell in cells] for rows in draws.values()])
        # pool cells too rare for the chi-square approximation into one column
        rare = table.sum(axis=0) < 20
        table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
        assert table.shape[1] >= 8
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3


class TestOutcomeRecord:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OutcomeRecord(a=np.array([1, 0]), b=np.array([1, 1]), x=X, y=Z)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OutcomeRecord(a=np.array([], dtype=np.int8), b=np.array([], dtype=np.int8), x=X, y=Z)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            OutcomeRecord(a=np.array([1, -1]), b=np.array([1]), x=X, y=Z)

    def test_length_and_pairs(self):
        rec = OutcomeRecord(a=np.array([1, -1, 1]), b=np.array([-1, 1, 1]), x=X, y=Z)
        assert len(rec) == 3
        assert list(rec.pairs()) == [(1, -1), (-1, 1), (1, 1)]

    def test_arrays_read_only(self):
        rec = run_measurement_batch(X, Z, 8, SamplerConfig(1))
        with pytest.raises(ValueError):
            rec.a[0] = -rec.a[0]

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from singlet_frame import (
    Direction,
    DomainError,
    OutcomeRecord,
    SamplerConfig,
    cos_angle,
    direction_from_polar,
    run_measurement_batch,
    sample_joint_counts,
    sample_outcome_pair,
    singlet_joint_distribution,
    tally,
)
from singlet_frame import sampler
from singlet_frame.sampler import _DRAW_PAIRS, _joint_counts, _keyed_generator

Z = Direction(0.0, 0.0, 1.0)
X = Direction(1.0, 0.0, 0.0)


class _FixedUniform:
    """Generator stand-in returning scripted uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(size)])


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

    @pytest.mark.parametrize("index", [True, False])
    def test_child_rejects_bool_index(self, index):
        # a bool is an int to isinstance; as an index it would silently be 1 or 0
        with pytest.raises(ValueError, match="substream"):
            SamplerConfig(42).child(0, index)

    @pytest.mark.parametrize("index", [True, 1.0, -1, 2**64])
    def test_fold_cache_cannot_skip_validation(self, index):
        # True and 1.0 hash equal to 1: a cache keyed on the raw path would hand them the (1,) entry
        SamplerConfig(1).child(1)
        hits = sampler._folded.cache_info().hits
        assert SamplerConfig(1).child(1) == SamplerConfig(1, sampler._splitmix64(sampler._splitmix64(1)))
        assert sampler._folded.cache_info().hits == hits + 1
        with pytest.raises(ValueError, match="substream"):
            SamplerConfig(1).child(index)

    def test_generator_keeps_full_64_bit_key(self):
        # keys at or above 2**63 must reach Philox exactly, not through float64
        for seed, stream in ((2**64 - 1, 2**63 + 1), (2**63 - 1, 2**63), (5, 2**64 - 2)):
            key = SamplerConfig(seed, stream).generator().bit_generator.state["state"]["key"]
            assert key.tolist() == [seed, stream]

    def test_rekeyed_thread_generator_restarts_the_fresh_stream(self):
        # the re-key also drops what an earlier draw left buffered: a part-used
        # Philox block and a spare 32-bit half
        for seed, stream in ((0, 0), (7, 2**63), (2**64 - 1, 5)):
            want = SamplerConfig(seed, stream).generator().normal(size=7)
            used = _keyed_generator(1, 2)
            used.random(3)
            used.integers(0, 10, dtype=np.uint32)
            assert _keyed_generator(seed, stream).normal(size=7).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("c", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_batch_equals_sequential_singles_at_edge_cosines(self, c):
        y = Direction(c, 0.0, math.sqrt(1.0 - c * c))
        assert cos_angle(X, y) == c
        cfg = SamplerConfig(21, 4)
        rec = run_measurement_batch(X, y, 256, cfg)
        gen = cfg.generator()
        singles = [sample_outcome_pair(c, gen) for _ in range(256)]
        assert list(rec.pairs()) == singles

    @pytest.mark.parametrize("c", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_uniforms_on_the_bounds_fall_in_bisect_right_cells(self, monkeypatch, c):
        bounds = ((1.0 - c) / 4.0, 0.5, (3.0 + c) / 4.0)
        u = [0.0, *bounds, *(np.nextafter(v, 0.0) for v in bounds), np.nextafter(1.0, 0.0)]
        u = [v for v in u if 0.0 <= v < 1.0]
        monkeypatch.setattr(sampler, "_keyed_generator", lambda seed, stream_id: _FixedUniform(u))
        rec = run_measurement_batch(X, Direction(c, 0.0, math.sqrt(1.0 - c * c)), len(u), SamplerConfig(1))
        singles = [sample_outcome_pair(c, _FixedUniform([v])) for v in u]
        assert list(rec.pairs()) == singles

    @pytest.mark.parametrize("size", [1, _DRAW_PAIRS - 1, _DRAW_PAIRS, _DRAW_PAIRS + 1, 3 * _DRAW_PAIRS + 5])
    def test_block_draws_are_one_draw(self, size):
        # successive blocks continue one stream: the pairs are those of one draw of every uniform
        c = 0.3
        y = Direction(c, 0.0, math.sqrt(1.0 - c * c))
        cfg = SamplerConfig(2**64 - 9, 2**63 + 7)
        rec = run_measurement_batch(X, y, size, cfg)
        cells = np.searchsorted(((1.0 - c) / 4.0, 0.5, (3.0 + c) / 4.0), cfg.generator().random(size), side="right")
        assert rec.a.tolist() == [(1, 1, -1, -1)[k] for k in cells]
        assert rec.b.tolist() == [(1, -1, 1, -1)[k] for k in cells]

    def test_concurrent_threads_draw_the_serial_records(self):
        # each thread re-keys its own Philox, so a record's blocks cannot take another draw's key
        y = direction_from_polar(0.4, 2.0)

        def draws():
            out = []
            for i in range(6):
                rec = run_measurement_batch(Z, y, 3 * _DRAW_PAIRS + 5, SamplerConfig(40 + i, i))
                out.append((rec.a.tobytes(), rec.b.tobytes(), sample_joint_counts(Z, y, 1000, SamplerConfig(i))))
            return out

        serial = draws()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                running = [pool.submit(draws) for _ in range(4)]
                concurrent = [f.result(timeout=60) for f in running]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == [serial] * 4

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


class _FixedDot(Direction):
    """Setting (value, 0, 0), which a Direction cannot hold unscaled: its dot product with X is ``value``."""

    def __init__(self, value):
        super().__init__(value, 0.0, 0.0)

    def __post_init__(self):
        pass  # keep the components as given


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

    # above 2**63 - 1 the record sampler used to hand the size to numpy ("Maximum allowed dimension exceeded");
    # no size between about 2**40 and that bound is tried, since numpy would allocate it
    @pytest.mark.parametrize("draw", [sample_joint_counts, run_measurement_batch])
    @pytest.mark.parametrize("batch_size", [0, -3, 2.5, 1.0, True, "10", None, 2**63, 2**64])
    def test_bad_batch_size_rejected_by_both_samplers(self, draw, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            draw(Z, X, batch_size, SamplerConfig(1))

    @pytest.mark.parametrize("cosine", [1.5, -1.0 - 1e-9, math.nan, math.inf])
    def test_bad_cosine_rejected(self, cosine):
        with pytest.raises(DomainError):
            sample_joint_counts(_FixedDot(cosine), X, 10, SamplerConfig(1))

    @pytest.mark.parametrize("cosine", [1.5, -1.0 - 1e-9, math.nan, math.inf])
    def test_bad_cosine_rejected_by_record_sampler(self, cosine):
        with pytest.raises(DomainError):
            run_measurement_batch(_FixedDot(cosine), X, 10, SamplerConfig(1))

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


def _one_row(x, y, batch_size, config, *path):
    """A one-row draw at (x, y) as a tuple, the form sample_joint_counts returns."""
    return tuple(_joint_counts(x, y.as_array()[None], batch_size, config, *path)[0].tolist())


class TestJointCounts:
    def test_draws_equal_sample_joint_counts_on_child_streams(self):
        cfg = SamplerConfig(77, 5)
        y = direction_from_polar(0.4, 2.0)
        # repeated paths, shared prefixes and the empty path, one after another
        for path in [(0, 3), (), (1, 2, 8), (1, 2, 0), (0, 3), (0,), (1, 2, 8), ()]:
            assert _one_row(Z, y, 300, cfg, *path) == sample_joint_counts(Z, y, 300, cfg.child(*path))

    @pytest.mark.parametrize("batch_size", [0, 2.5, True, 2**63])
    def test_batch_size_checked_on_every_draw(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            _joint_counts(Z, ((1.0, 0.0, 0.0),), batch_size, SamplerConfig(1))

    def test_batch_size_bound_is_the_largest_int64(self):
        # numpy's multinomial takes a C long: 2**63 used to escape as an OverflowError
        assert sum(sample_joint_counts(Z, X, 2**63 - 1, SamplerConfig(1))) == 2**63 - 1
        assert _joint_counts(Z, ((1.0, 0.0, 0.0),), 2**63 - 1, SamplerConfig(1)).sum() == 2**63 - 1
        with pytest.raises(ValueError, match="batch_size"):
            sample_joint_counts(Z, X, 2**63, SamplerConfig(1))

    @pytest.mark.parametrize("path", [(-1,), (0, True), (True, 2, 3), (1, 2.0, 3), (1.0, 2, 3), (1, "2", 3)])
    def test_bad_path_rejected_after_an_equal_good_one(self, path):
        # True and 1.0 compare equal to 1, so nothing may be looked up by the path
        cfg = SamplerConfig(1)
        good = _one_row(Z, X, 10, cfg, 1, 2, 3)
        with pytest.raises(ValueError, match="substream"):
            _one_row(Z, X, 10, cfg, *path)
        assert _one_row(Z, X, 10, cfg, 1, 2, 3) == good == sample_joint_counts(Z, X, 10, cfg.child(1, 2, 3))

    def test_phase_draw_is_one_multinomial_over_its_rows(self):
        # the rows of a (k, 4) draw are one 2-d multinomial from the child stream
        cfg = SamplerConfig(2**64 - 5, 2**63)
        ys = np.array([direction_from_polar(0.3 * i, 1.1 * i).as_array() for i in range(7)] + [-Z.as_array()])
        pvals = [
            ((1.0 - c) / 4.0, (1.0 + c) / 4.0, (1.0 + c) / 4.0, (1.0 - c) / 4.0)
            for c in (cos_angle(Z, Direction(*y)) for y in ys.tolist())
        ]
        got = _joint_counts(Z, ys, 5000, cfg, 1, 4)
        assert got.dtype == np.int64 and got.shape == (8, 4)
        assert got.tolist() == cfg.child(1, 4).generator().multinomial(5000, pvals).tolist()
        assert got.sum(axis=1).tolist() == [5000] * 8

    @pytest.mark.parametrize("c", [-0.6, 0.3])
    def test_phase_rows_distributed_as_one_row_draws(self, c):
        # chi-square homogeneity test on the four cells of a small batch: the
        # rows of 600 five-row phase draws against 3000 one-row draws, each
        # from its own child stream
        y = Direction(math.sqrt(1.0 - c * c), 0.0, c)
        batch, runs, k = 6, 3000, 5
        ys = np.tile(y.as_array(), (k, 1))
        draws = {
            "phase rows": [
                tuple(row) for i in range(runs // k)
                for row in _joint_counts(Z, ys, batch, SamplerConfig(903), i).tolist()
            ],
            "one row": [sample_joint_counts(Z, y, batch, SamplerConfig(904).child(i)) for i in range(runs)],
        }
        cells = sorted(set(draws["phase rows"]) | set(draws["one row"]))
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

    def test_caller_arrays_stay_writable_and_apart(self):
        a = np.array([1, -1, 1], dtype=np.int8)
        b = np.array([-1, -1, 1], dtype=np.int8)
        rec = OutcomeRecord(a=a, b=b, x=X, y=Z)
        a[0], b[2] = -1, -1
        assert rec.a.tolist() == [1, -1, 1] and rec.b.tolist() == [-1, -1, 1]
        with pytest.raises(ValueError):
            rec.b[0] = 1

    @pytest.mark.parametrize("size", [1, 2, 1000, 70_000])
    def test_tally_is_the_per_pair_count(self, rng, size):
        # the loop reference for the one bincount over 2 * (a < 0) + (b < 0)
        rec = OutcomeRecord(a=rng.choice([-1, 1], size=size), b=rng.choice([-1, 1], size=size), x=X, y=Z)
        cells = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        counts = [0, 0, 0, 0]
        for pair in rec.pairs():
            counts[cells.index(pair)] += 1
        t = tally(rec)
        assert (t.m_pp, t.m_pm, t.m_mp, t.m_mm) == tuple(counts)
        assert all(type(m) is int for m in (t.m_pp, t.m_pm, t.m_mp, t.m_mm))

"""Property tests of the joint-count sampler over any cosine and batch."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from singlet_frame import (
    CountTable,
    Direction,
    SamplerConfig,
    estimate_mutual_information,
    sample_joint_counts,
)

Z = Direction(0.0, 0.0, 1.0)

cosines = st.floats(min_value=-1.0, max_value=1.0)
batches = st.integers(min_value=1, max_value=10**12)
configs = st.builds(
    SamplerConfig,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream_id=st.integers(min_value=0, max_value=2**64 - 1),
)
directions = (
    st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 1e-3)
    .map(lambda v: Direction(*v))
)


def _at_cosine(c: float) -> Direction:
    """A setting whose cosine with Z is c."""
    return Direction(math.sqrt(max(0.0, 1.0 - c * c)), 0.0, c)


@settings(deadline=None)
@given(c=cosines, batch=batches, config=configs)
def test_counts_nonnegative_and_sum_to_batch(c, batch, config):
    counts = sample_joint_counts(Z, _at_cosine(c), batch, config)
    assert all(m >= 0 for m in counts)
    assert sum(counts) == batch


@settings(deadline=None)
@given(c=cosines, batch=batches, config=configs)
def test_plug_in_mi_of_drawn_table_is_a_bit_at_most(c, batch, config):
    table = CountTable.from_joint_counts(*sample_joint_counts(Z, _at_cosine(c), batch, config))
    assert 0.0 <= estimate_mutual_information(table) <= 1.0


@settings(deadline=None)
@given(x=directions, y=directions, batch=batches, config=configs)
def test_swapping_settings_keeps_the_count_stream(x, y, batch, config):
    assert sample_joint_counts(x, y, batch, config) == sample_joint_counts(y, x, batch, config)

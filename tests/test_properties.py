"""Property tests of the joint-count sampler, the count table, the transfer search, the cosine,
the record CSV, the JSON writer and the config's canonical form.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_trials
from singlet_frame import (
    CountTable,
    Direction,
    HemispherePrior,
    OutcomeRecord,
    ProtocolParams,
    SamplerConfig,
    cos_angle,
    estimate_mutual_information,
    resolve_sign,
    sample_joint_counts,
    transfer_direction,
)
from singlet_frame.config import parse_config
from singlet_frame.core import _plug_in_mi
from singlet_frame.sampler import _joint_counts
from singlet_frame.serialize import read_record_arrays_csv, record_to_csv, write_json_atomic

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
    table = CountTable(*sample_joint_counts(Z, _at_cosine(c), batch, config))
    assert 0.0 <= estimate_mutual_information(table) <= 1.0


@settings(deadline=None)
@given(x=directions, y=directions, batch=batches, config=configs)
def test_swapping_settings_keeps_the_count_stream(x, y, batch, config):
    assert sample_joint_counts(x, y, batch, config) == sample_joint_counts(y, x, batch, config)


@st.composite
def joint_counts(draw):
    """Four nonnegative counts whose sum lies in [1, 1e12]."""
    total = draw(st.integers(min_value=1, max_value=10**12))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=total), min_size=3, max_size=3)))
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))


def _loop_plug_in_mi(pp, pm, mp, mm, total) -> float:
    """Reference for ``_plug_in_mi``: the loop over (cell, row sum, column sum) it writes out term by term."""
    a_plus, a_minus, b_plus, b_minus = pp + pm, mp + mm, pp + mp, pm + mm
    out = 0.0
    for w, wa, wb in ((pp, a_plus, b_plus), (pm, a_plus, b_minus), (mp, a_minus, b_plus), (mm, a_minus, b_minus)):
        if w:
            out += (w / total) * math.log2(w * total / (wa * wb))
    return min(1.0, max(0.0, out))


# cells of at most 2.5e11 (totals up to 1e12), often empty or tiny, so one-sided tables come up
sparse_counts = st.tuples(*[st.sampled_from([0, 0, 1, 2]) | st.integers(min_value=0, max_value=25 * 10**10)] * 4)
probabilities = st.tuples(*[st.just(0.0) | st.floats(min_value=1e-9, max_value=1.0)] * 4)


@settings(max_examples=300)
@given(counts=joint_counts() | sparse_counts.filter(any), probs=probabilities.filter(any), c=cosines)
def test_plug_in_mi_matches_the_loop_form(counts, probs, c):
    assert repr(_plug_in_mi(*counts, sum(counts))) == repr(_loop_plug_in_mi(*counts, sum(counts)))
    table = [p / sum(probs) for p in probs]
    assert repr(_plug_in_mi(*table, 1)) == repr(_loop_plug_in_mi(*table, 1))
    same, anti = (1.0 - c) / 4.0, (1.0 + c) / 4.0
    assert repr(_plug_in_mi(same, anti, anti, same, 1)) == repr(_loop_plug_in_mi(same, anti, anti, same, 1))


@given(counts=joint_counts())
def test_count_table_dict_form(counts):
    pp, pm, mp, mm = counts
    expected = {
        "m_joint": {"pp": pp, "pm": pm, "mp": mp, "mm": mm},
        "m_a_plus": pp + pm,
        "m_a_minus": mp + mm,
        "m_b_plus": pp + mp,
        "m_b_minus": pm + mm,
        "total": pp + pm + mp + mm,
    }
    table = CountTable(pp, pm, mp, mm)
    assert table.to_dict() == expected


@settings(deadline=None, max_examples=50)
@given(
    truth=directions,
    pole=st.none() | directions,
    n_trials=st.integers(min_value=1, max_value=12),
    batch=st.integers(min_value=1, max_value=10**9),
    rounds=st.integers(min_value=0, max_value=3),
    config=configs,
    jitter_seed=st.none() | st.integers(min_value=0, max_value=2**64 - 1),
)
def test_transfer_search_follows_each_phase_first_maximum(truth, pole, n_trials, batch, rounds, config, jitter_seed):
    prior = HemispherePrior(None) if pole is None else HemispherePrior.around(pole)
    params = ProtocolParams(n_trials, batch, rounds, prior, config=config, jitter_seed=jitter_seed)
    res = transfer_direction(truth, params)
    starts = [i for i, phase in enumerate(res.phases) if i == 0 or phase != res.phases[i - 1]] + [len(res.phases)]
    assert len(starts) == rounds + 2
    for start, end in zip(starts, starts[1:]):
        best = max(range(start, end), key=lambda i: (res.scores[i], -i))
        if end < len(res.directions):  # the next round is centered on this phase's first maximum
            assert res.directions[end] == res.directions[best]
    assert res.mi_score == res.scores[best]
    assert (res.direction, res.sign_resolved) == resolve_sign(Direction(*res.directions[best]), prior)


paths = st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=4).map(tuple)


@settings(deadline=None)
@given(config=configs, batch=batches, c=cosines, path=paths, earlier_c=cosines, earlier_path=paths)
def test_rekeyed_draw_is_the_freshly_keyed_child_draw(config, batch, c, path, earlier_c, earlier_path):
    # leaves the shared Philox mid-stream
    _joint_counts(Z, _at_cosine(earlier_c).as_array()[None], batch, config, *earlier_path)
    y = _at_cosine(c)
    same, anti = (1.0 - cos_angle(Z, y)) / 4.0, (1.0 + cos_angle(Z, y)) / 4.0
    fresh = config.child(*path).generator().multinomial(batch, (same, anti, anti, same))
    assert _joint_counts(Z, y.as_array()[None], batch, config, *path).tolist() == [fresh.tolist()]


@settings(deadline=None)
@given(
    config=configs, batch=batches, x=directions, y=directions, path=paths,
    earlier=st.lists(directions, min_size=1, max_size=9),
)
def test_one_row_draw_is_sample_joint_counts_on_the_child(config, batch, x, y, path, earlier):
    _joint_counts(x, np.array([d.as_array() for d in earlier]), batch, config, 1, 2)  # leaves the Philox mid-stream
    got = _joint_counts(x, y.as_array()[None], batch, config, *path)
    assert got.dtype == np.int64 and got.shape == (1, 4)
    assert tuple(got[0].tolist()) == sample_joint_counts(x, y, batch, config.child(*path))


@given(x=directions, y=directions)
def test_cos_angle_of_directions_is_the_clamped_dot(x, y):
    assert cos_angle(x, y) == min(1.0, max(-1.0, x.dot(y)))


outcome_pairs = st.lists(st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])), min_size=1, max_size=2000)


@settings(deadline=None)
@given(pairs=outcome_pairs)
def test_record_csv_round_trip(pairs):
    a, b = (np.array(v, dtype=np.int8) for v in zip(*pairs))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        record_to_csv(OutcomeRecord(a=a, b=b, x=Z, y=Z), path)
        back_a, back_b = read_record_arrays_csv(path)
    assert np.array_equal(back_a, a) and np.array_equal(back_b, b)


# characters that are JSON syntax, need escaping, or are not ASCII
json_text = st.text(
    alphabet=st.sampled_from(list('"\\[]{},: \n\x00\x1f/a\u00e9\u2603\ud800\U0001f600')) | st.characters(),
    max_size=8,
)
# no drawn key holds "trials", so the only "trials": null entries are the slots placed below
json_keys = json_text.filter(lambda k: "trials" not in k)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats()
    | json_text
    | st.sampled_from([[], {}, [[]], {"": {}}, [{}, []]]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=20,
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
four_counts = st.tuples(*[st.integers(min_value=0, max_value=2**63 - 1)] * 4).filter(any)
# coarse rows of finite floats for a slot, each with four counts (key True) or four counts or None (key False)
row_directions = st.tuples(finite_floats, finite_floats, finite_floats)
trial_rows = {
    counts: st.lists(st.tuples(row_directions, finite_floats, table), min_size=1, max_size=3)
    for counts, table in ((True, four_counts), (False, four_counts | st.none()))
}


def _dicts(value):
    """Every dict inside ``value``, itself included."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for child in value:
            yield from _dicts(child)


@st.composite
def slotted_json(draw):
    """A ``json_values`` value holding 0 to 3 ``"trials": None`` slots at random depths, and a
    ``(rows, counts)`` pair per slot, its rows drawn from ``trial_rows[counts]``."""
    # a tree of fresh containers: sampled_from hands out shared ones, which may repeat within a value
    value = json.loads(json.dumps(draw(json_values)))
    trials = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        free = [d for d in _dicts(value) if "trials" not in d]
        if free and draw(st.booleans()):
            draw(st.sampled_from(free))["trials"] = None
        else:
            # one key on each side of "trials" in sorted order, two of them holding its slot's bytes
            # in an escaped string; a drawn text key costs milliseconds
            value = {"trials": None, draw(st.sampled_from(["result", "x", 'x"trials', '"trials": null'])): value}
        counts = draw(st.booleans())
        trials.append((draw(trial_rows[counts]), counts))
    return value, trials


def _filled(value, trials):
    """``value`` with each slot, in the order sorted keys write them, holding its trials as dicts."""
    if isinstance(value, list):
        return [_filled(v, trials) for v in value]
    if not isinstance(value, dict):
        return value
    out = {}
    for key, v in sorted(value.items()):
        if key == "trials" and v is None:
            v = reference_trials(*trials.pop(0))
        out[key] = _filled(v, trials)
    return out


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


@settings(deadline=None, max_examples=500)
@given(drawn=slotted_json())
def test_json_trial_slots_are_the_dumped_trial_dicts(json_dir, drawn):
    value, trials = drawn
    path = json_dir / "v.json"
    write_json_atomic(path, value, trials=trials)
    expected = json.dumps(_filled(value, list(trials)), sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == expected.encode()


angle_values = st.floats(min_value=-10.0, max_value=10.0) | st.integers(min_value=-10, max_value=10)
angles = st.fixed_dictionaries({"theta": angle_values, "phi": angle_values})
uint64s = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def frames(draw):
    """Three orthonormal axes as polar angles: (t, p), (t + pi/2, p) and (pi/2, p + pi/2)."""
    t, p = draw(st.floats(min_value=-4.0, max_value=4.0)), draw(st.floats(min_value=-4.0, max_value=4.0))
    return [
        {"theta": t, "phi": p}, {"theta": t + math.pi / 2, "phi": p}, {"theta": math.pi / 2, "phi": p + math.pi / 2},
    ]


def _optional(draw, data, key, values):
    """Give ``data[key]`` a drawn value, or None, or leave the key out."""
    choice = draw(st.sampled_from(["absent", "null", "value"]))
    if choice != "absent":
        data[key] = None if choice == "null" else draw(values)


@st.composite
def valid_configs(draw):
    """Every form a valid config may take: direction or frame, each prior form, optional keys present or not."""
    is_frame = draw(st.booleans())
    data = {"mode": draw(st.sampled_from(["exact", "sampled"]))}
    data["alice_frame" if is_frame else "alice_direction"] = draw(frames() if is_frame else angles)
    data["trials"], data["batch"] = draw(st.integers(1, 10**6)), draw(st.integers(1, 2**70))
    if draw(st.booleans()):
        data["refine_rounds"] = draw(st.integers(0, 20))
    if draw(st.booleans()):
        form = draw(st.sampled_from([None, "pole", "poles"] if is_frame else [None, "pole"]))
        prior = data["prior"] = {}
        if form is not None:
            prior[form] = draw(angles if form == "pole" else st.lists(angles, min_size=3, max_size=3))
        if draw(st.booleans()):  # an enabled prior needs a pole; without the key the prior is disabled
            prior["enabled"] = form is not None and draw(st.booleans())
    if data["mode"] == "sampled":
        data["seed"] = draw(uint64s)
    else:
        _optional(draw, data, "seed", uint64s)
    if draw(st.booleans()):
        data["stream"] = draw(uint64s)
    _optional(draw, data, "jitter_seed", uint64s)
    if draw(st.booleans()):
        data["orthonormalize"] = draw(st.booleans()) if is_frame else False
    _optional(draw, data, "out", st.text(min_size=1, max_size=8))
    return data


def _mutate(value):
    """Add an entry to every dict and list inside ``value``."""
    if isinstance(value, dict):
        for v in list(value.values()):
            _mutate(v)
        value["added"] = 1
    elif isinstance(value, list):
        for v in value:
            _mutate(v)
        value.append(1)


@settings(deadline=None, max_examples=300)
@given(data=valid_configs())
def test_parse_config_is_canonical_and_owns_its_dicts(data):
    before = copy.deepcopy(data)
    cfg = parse_config(data)
    assert parse_config(cfg) == cfg
    assert json.loads(json.dumps(cfg)) == cfg
    assert all(type(a[key]) is float for a in _angle_dicts(cfg) for key in ("theta", "phi"))
    assert not any(v is None for v in cfg.values())
    assert {"refine_rounds", "prior", "stream", "orthonormalize"} <= cfg.keys()
    assert cfg["prior"]["enabled"] or cfg["prior"] == {"enabled": False}
    # the result shares no dict or list with its input: mutating either leaves the other as it was
    want = copy.deepcopy(cfg)
    _mutate(cfg)
    assert data == before
    cfg = parse_config(data)
    _mutate(data)
    assert cfg == want


def _angle_dicts(cfg):
    prior = cfg["prior"]
    yield from cfg.get("alice_frame", [cfg.get("alice_direction")])
    yield from prior.get("poles", [prior["pole"]] if "pole" in prior else [])

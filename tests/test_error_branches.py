"""Validation branches, each given an input that reaches it: the exact message and, through ``main``, exit 1."""

import io
import json
import math

import numpy as np
import pytest

from singlet_frame import (
    Direction,
    HemispherePrior,
    PosteriorSummary,
    ProtocolParams,
    sign_tally_from_arrays,
    transfer_frame,
)
from singlet_frame.bayes import CI_MAX_TALLY
from singlet_frame.cli import cmd_posterior_family, main
from singlet_frame.config import ConfigError, parse_config
from singlet_frame.serialize import _READ_BYTES, ParseError, _record_blocks, read_record_arrays_csv

FRAME = [
    {"theta": math.pi / 2, "phi": 0.0},
    {"theta": math.pi / 2, "phi": math.pi / 2},
    {"theta": 0.0, "phi": 0.0},
]
POLE = {"theta": 0.5, "phi": 0.1}


def _config(**overrides):
    data = {"mode": "exact", "alice_direction": {"theta": 1.5, "phi": 2.1}, "trials": 10, "batch": 100}
    data.update(overrides)
    return data


def _frame_config(**overrides):
    data = _config(**{"alice_frame": FRAME, **overrides})
    del data["alice_direction"]
    return data


CONFIG_BRANCHES = [
    pytest.param(_config(orthonormalize="true"), "field 'orthonormalize': must be true or false", id="orthonormalize"),
    pytest.param(
        _config(prior={"enabled": 1, "pole": POLE}), "field 'prior.enabled': must be true or false", id="prior-enabled",
    ),
    pytest.param([_config()], "config root: must be a JSON object", id="root-list"),
    pytest.param(
        _frame_config(alice_frame=FRAME[:2]), "field 'alice_frame': must be a list of three angle pairs",
        id="alice-frame-two",
    ),
    pytest.param(
        _frame_config(alice_frame=FRAME[0]), "field 'alice_frame': must be a list of three angle pairs",
        id="alice-frame-object",
    ),
    pytest.param(_config(prior=[POLE]), "field 'prior': must be an object", id="prior-list"),
    pytest.param(_config(prior={"enabled": False, "axis": 1}), "field 'prior.axis': unknown key", id="prior-key"),
    pytest.param(
        _frame_config(prior={"enabled": True, "pole": POLE, "poles": [POLE] * 3}),
        "field 'prior.pole': give either 'pole' or 'poles', not both", id="pole-and-poles",
    ),
    pytest.param(
        _frame_config(prior={"enabled": True, "poles": [POLE] * 2}),
        "field 'prior.poles': must be a list of three angle pairs", id="poles-two",
    ),
    pytest.param(
        _frame_config(prior={"enabled": True, "poles": POLE}),
        "field 'prior.poles': must be a list of three angle pairs", id="poles-object",
    ),
    pytest.param(_config(out=3), "field 'out': must be a string path", id="out-int"),
]


@pytest.mark.parametrize("data, message", CONFIG_BRANCHES)
def test_parse_config_branch(data, message):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert str(err.value) == message


@pytest.mark.parametrize("data, message", CONFIG_BRANCHES)
def test_run_config_branch_exits_1(tmp_path, capsys, data, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


I64 = 2**63 - 1

TALLY_BRANCHES = [
    pytest.param("5,x", "field 'tally': counts must be integers, got '5,x'", id="not-an-integer"),
    pytest.param("-1,3", "field 'tally': n_plus must be an integer in [0, 9223372036854775807], got -1", id="negative"),
    pytest.param("3,-2", "field 'tally': n_minus must be an integer in [0, 9223372036854775807], got -2",
                 id="negative-n-minus"),
    pytest.param(f"{I64 + 1},0", f"field 'tally': n_plus must be an integer in [0, {I64}], got {I64 + 1}",
                 id="above-int64"),
    pytest.param(f"{10**400},1", f"field 'tally': n_plus must be an integer in [0, {I64}], got {10**400}",
                 id="int-too-large-for-a-float"),
]


@pytest.mark.parametrize("command", ["bayes", "posterior-family"])
@pytest.mark.parametrize("text, message", TALLY_BRANCHES)
def test_tally_branch_exits_1(tmp_path, capsys, command, text, message):
    out = tmp_path / "out"
    assert main([command, f"--tally={text}", "--out", str(out)]) == 1  # "=": argparse takes "-1,3" for an option
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [f"{CI_MAX_TALLY + 1},0", f"{CI_MAX_TALLY // 2},{CI_MAX_TALLY // 2 + 1}", f"{7 * 10**18},{3 * 10**18}"],
)
def test_bayes_tally_above_the_interval_range_exits_1(tmp_path, capsys, text):
    # the largest of these exited 0 with an interval of +/-1.2e-8; 1e13 gave an interval 20x too wide
    out = tmp_path / "s.json"
    assert main(["bayes", "--tally", text, "--out", str(out)]) == 1
    n = sum(map(int, text.split(",")))
    message = f"credible interval needs a tally of at most {CI_MAX_TALLY} pairs, got {n}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bayes_tally_at_the_interval_range_exits_0(tmp_path):
    out = tmp_path / "s.json"
    assert main(["bayes", "--tally", f"{CI_MAX_TALLY},0", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["n_plus"] == CI_MAX_TALLY and summary["credible_interval_cos"][0] == -1.0


def test_posterior_family_needs_a_tally(tmp_path):
    out = tmp_path / "family.csv"
    with pytest.raises(ConfigError) as err:
        cmd_posterior_family([], out)
    assert str(err.value) == "field 'tally': at least one tally is required"
    assert not out.exists()


@pytest.mark.parametrize("count", [2, 4])
def test_transfer_frame_needs_three_priors(count):
    axes = (Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0), Direction(0.0, 0.0, 1.0))
    params = ProtocolParams(10, 10, 1, HemispherePrior.none(), mode="exact")
    with pytest.raises(ValueError) as err:
        transfer_frame(axes, params, priors=(HemispherePrior.around(axes[2]),) * count)
    assert str(err.value) == "priors must contain exactly three entries"


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param([1, -1, 1], [1, -1], id="unequal"),
        pytest.param(np.ones((2, 2)), np.ones((2, 2)), id="2-d"),
        pytest.param(np.ones((1, 3)), np.ones(3), id="2-d-and-1-d"),
        pytest.param([], [], id="empty"),
        pytest.param(np.ones(0, dtype=np.int8), np.ones(0, dtype=np.int8), id="empty-int8"),
    ],
)
def test_sign_tally_from_arrays_shapes(a, b):
    with pytest.raises(ValueError) as err:
        sign_tally_from_arrays(a, b)
    assert str(err.value) == "outcome arrays must be 1-d, nonempty, and of equal length"


def _summary(map_cos, interval):
    return PosteriorSummary(3, 4, map_cos, (-1.0, 1.0), interval, 0.95, 0.0)


@pytest.mark.parametrize(
    "map_cos, interval, message",
    [
        (1.5, (-1.0, 1.0), "map_cos_theta must lie in [-1, 1]"),
        (-1.0 - 1e-12, (-1.0, 1.0), "map_cos_theta must lie in [-1, 1]"),
        (math.nan, (-1.0, 1.0), "map_cos_theta must lie in [-1, 1]"),
        (0.5, (-0.2, 0.3), "credible interval must contain the MAP point"),
        (-0.5, (-0.2, 0.3), "credible interval must contain the MAP point"),
        (0.0, (0.1, -0.1), "credible interval must contain the MAP point"),
    ],
)
def test_posterior_summary_checks_its_map_point(map_cos, interval, message):
    with pytest.raises(ValueError) as err:
        _summary(map_cos, interval)
    assert str(err.value) == message
    assert _summary(0.25, (-0.2, 0.3)).map_cos_theta == 0.25


# each line is longer than one read of the block reader (256 KiB), so it
# leaves the file to the row loop, which accepts or rejects it as for any file
LONG_INDEX = "0" * 131_000  # csv.reader's field size limit is 131072 characters
PAD = " " * 131_000  # int() ignores whitespace around an outcome
LONG_LINES = [
    pytest.param(f"0,1,1\n{LONG_INDEX},{PAD}-1,{PAD}1\n2,1,-1\n", ([1, -1, 1], [1, 1, -1]), id="valid"),
    pytest.param(f"0,1,1\n1,1,1{',1' * 300_000}\n", "line 3: expected 3 fields, got 300003", id="past-two-reads"),
    pytest.param(f"0,1,1\n1,1,{'1' * 300_000}\n", "line 3: field larger than field limit (131072)", id="field-size"),
    pytest.param(f"0,1,1\n1,1,1{',1' * 150_000}\n", "line 3: expected 3 fields, got 150003", id="mid-second-read"),
]


@pytest.mark.parametrize("body, expected", LONG_LINES)
def test_record_csv_line_longer_than_a_read(tmp_path, capsys, body, expected):
    data = b"index,a,b\n" + body.encode("ascii")
    assert max(map(len, data.split(b"\n"))) > _READ_BYTES
    assert _record_blocks(io.BytesIO(data)) is None
    path = tmp_path / "rec.csv"
    path.write_bytes(data)
    out = tmp_path / "s.json"
    if isinstance(expected, str):
        with pytest.raises(ParseError) as err:
            read_record_arrays_csv(path)
        assert str(err.value) == f"{path}: {expected}"
        assert main(["bayes", "--record", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {expected}\n"
        assert not out.exists()
    else:
        a, b = read_record_arrays_csv(path)
        assert a.tolist() == expected[0] and b.tolist() == expected[1]
        assert main(["bayes", "--record", str(path), "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert (summary["n_plus"], summary["n_minus"]) == (1, 2)

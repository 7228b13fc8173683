import csv
import hashlib
import io
import json
import math
import os
import re
import stat
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_difference, reference_trials
from singlet_frame import (
    Direction, HemispherePrior, OutcomeRecord, SamplerConfig, direction_from_polar, run_measurement_batch,
)
from singlet_frame import serialize
from singlet_frame.config import ConfigError, axis_priors, load_config, parse_config
from singlet_frame.serialize import (
    _READ_BYTES,
    _WRITE_ROWS,
    ParseError,
    _record_rows,
    format_float,
    read_record_arrays_csv,
    record_to_csv,
    write_csv_atomic,
    write_json_atomic,
    write_text_atomic,
)

X = Direction(1.0, 0.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)


def _minimal(**overrides):
    data = {
        "mode": "sampled",
        "alice_direction": {"theta": 1.5, "phi": 2.1},
        "trials": 10,
        "batch": 100,
        "seed": 7,
    }
    data.update(overrides)
    return data


class TestFormatFloat:
    def test_round_trips_doubles(self, rng):
        for v in rng.uniform(-1e6, 1e6, size=1000):
            assert float(format_float(float(v))) == float(v)
        for v in (math.pi, 1e-300, -0.0, 1.0 / 3.0):
            assert float(format_float(v)) == v


class TestAtomicWriters:
    def test_csv_content_and_no_temp_leftovers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_atomic(path, ["a", "b"], [(1, 2), (3, 4)])
        assert path.read_text() == "a,b\n1,2\n3,4\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_json_canonical(self, tmp_path):
        path = tmp_path / "t.json"
        write_json_atomic(path, {"b": 1, "a": [1.5]})
        assert path.read_text() == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_csv_atomic(tmp_path / "nope" / "t.csv", ["a"], [])

    def test_failing_record_stream_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"previous\n")
        render = serialize._record_rows
        starts = []

        def fail_at_second_block(a, b, start):
            starts.append(start)
            if len(starts) == 2:
                assert [p.stat().st_size > 0 for p in tmp_path.glob("rec.csv.*.tmp")] == [True]
                raise RuntimeError("stream failed")
            return render(a, b, start)

        monkeypatch.setattr(serialize, "_record_rows", fail_at_second_block)
        with pytest.raises(RuntimeError, match="stream failed"):
            record_to_csv(_random_record(3 * _WRITE_ROWS, 1), path)
        assert starts == [0, _WRITE_ROWS]
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rec.csv"]


class TestRecordSerialization:
    def test_csv_round_trip(self, tmp_path):
        rec = run_measurement_batch(X, Z, 50, SamplerConfig(3))
        path = tmp_path / "rec.csv"
        record_to_csv(rec, path)
        a, b = read_record_arrays_csv(path)
        assert np.array_equal(a, rec.a) and np.array_equal(b, rec.b)

    def test_csv_rerun_byte_identical(self, tmp_path):
        rec = run_measurement_batch(X, Z, 20, SamplerConfig(3))
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        record_to_csv(rec, p1)
        record_to_csv(rec, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,a,b\n0,1,-1\n")
        with pytest.raises(ParseError, match="line 1"):
            read_record_arrays_csv(path)

    def test_csv_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,a,b\n0,1,-1\n1,2,-1\n")
        with pytest.raises(ParseError, match="line 3"):
            read_record_arrays_csv(path)

    def test_csv_non_integer_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,a,b\n0,x,-1\n")
        with pytest.raises(ParseError, match="line 2"):
            read_record_arrays_csv(path)

    def test_csv_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,a,b\n")
        with pytest.raises(ParseError, match="no outcome rows"):
            read_record_arrays_csv(path)


def _csv_writer_bytes(rec: OutcomeRecord) -> bytes:
    """The record CSV as the csv module writes it, one row tuple per pair."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "a", "b"])
    writer.writerows((i, int(a), int(b)) for i, (a, b) in enumerate(rec.pairs()))
    return buf.getvalue().encode("utf-8")


def _record_text(rec: OutcomeRecord, row="{i},{a},{b}", end="\n") -> str:
    rows = [row.format(i=i, a=a, b=b) for i, (a, b) in enumerate(rec.pairs())]
    return "index,a,b" + end + end.join(rows) + end


class TestRecordCsvBytes:
    @pytest.mark.parametrize(
        "n", [1, 9, 10, 11, 99, 100, 101, 100001, _WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1, 2 * _WRITE_ROWS + 1]
    )
    def test_bytes_equal_csv_writer_across_digit_widths(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rec = OutcomeRecord(a=rng.choice([-1, 1], n), b=rng.choice([-1, 1], n), x=X, y=Z)
        path = tmp_path / "rec.csv"
        record_to_csv(rec, path)
        assert path.read_bytes() == _csv_writer_bytes(rec)

    def test_golden_sha256_of_seed_7_record(self, tmp_path):
        rec = run_measurement_batch(X, direction_from_polar(2.0, 0.5), 100_000, SamplerConfig(7))
        path = tmp_path / "rec.csv"
        record_to_csv(rec, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "75a59818faef04b9b162ef0400f9ced8cf612477878a1dd0101798d2e657da37"


def _random_record(n: int, seed: int) -> OutcomeRecord:
    rng = np.random.default_rng(seed)
    return OutcomeRecord(a=rng.choice([-1, 1], n), b=rng.choice([-1, 1], n), x=X, y=Z)


class TestRecordCsvDigitBoundaries:
    """The fixed-width row writer against csv.writer where the index gains a digit."""

    @pytest.mark.parametrize("n", [10**k + d for k in range(1, 7) for d in (-1, 0, 1)])
    def test_bytes_equal_csv_writer_at_each_power_of_ten(self, tmp_path, n):
        rec = _random_record(n, n)
        path = tmp_path / "rec.csv"
        record_to_csv(rec, path)
        assert path.read_bytes() == _csv_writer_bytes(rec)

    @settings(deadline=None)
    @given(n=st.integers(min_value=1, max_value=3000), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bytes_equal_csv_writer_for_any_length(self, n, seed):
        rec = _random_record(n, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rec.csv"
            record_to_csv(rec, path)
            assert path.read_bytes() == _csv_writer_bytes(rec)

    @pytest.mark.parametrize("start", [10**8 - 4, 10**8 - 1001, 10**9 - 4, 10**9 + 998, 10**16 - 3])
    def test_rows_of_nine_and_more_digit_indices(self, start):
        rng = np.random.default_rng(start)
        a, b = rng.choice([-1, 1], 8), rng.choice([-1, 1], 8)
        expected = "".join(f"{start + k},{x},{y}\n" for k, (x, y) in enumerate(zip(a, b)))
        assert bytes(_record_rows(a, b, start)) == expected.encode()

    @settings(deadline=None)
    @given(start=st.integers(min_value=0, max_value=10**18), m=st.integers(min_value=1, max_value=2100))
    def test_rows_from_any_start(self, start, m):
        rng = np.random.default_rng(m)
        a, b = rng.choice([-1, 1], m), rng.choice([-1, 1], m)
        expected = "".join(f"{start + k},{x},{y}\n" for k, (x, y) in enumerate(zip(a, b)))
        assert bytes(_record_rows(a, b, start)) == expected.encode()

    def test_peak_memory_at_1e6_rows(self, tmp_path):
        # tracemalloc sees numpy's buffers: writing holds one block of rows,
        # reading one read block plus the int8 outcome arrays
        n = 10**6
        rec = _random_record(n, 3)
        path = tmp_path / "rec.csv"
        tracemalloc.start()
        try:
            record_to_csv(rec, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            a, b = read_record_arrays_csv(path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(a, rec.a) and np.array_equal(b, rec.b)
        assert write_peak <= 2 * 2**20
        assert read_peak <= 4 * n + 2 * 2**20

    def test_reading_holds_less_than_the_file(self, tmp_path):
        # a reader that holds the whole file fails this; a pipe is still read whole, as documented
        n = 2 * 10**6
        rec = _random_record(n, 4)
        path = tmp_path / "rec.csv"
        record_to_csv(rec, path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            a, b = read_record_arrays_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(a, rec.a) and np.array_equal(b, rec.b)
        assert size > 24 * 10**6 and peak < size

    def test_row_loop_holds_one_byte_per_outcome(self, tmp_path):
        # CRLF lines fail the row grammar, so the csv.reader row loop reads this copy; with the read block
        # and the decoder's chunks its traced peak stays below 4 bytes per row
        n = 2 * 10**5
        rec = _random_record(n, 5)
        path = tmp_path / "rec.csv"
        record_to_csv(rec, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        tracemalloc.start()
        try:
            a, b = read_record_arrays_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(a, rec.a) and np.array_equal(b, rec.b)
        assert a.dtype == b.dtype == np.int8 and a.flags.writeable and b.flags.writeable
        assert peak < 4 * n


class TestAtomicWriteMode:
    """Atomic writes give a new file the mode ``open`` gives it: 0o666 less the umask."""

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_honor_the_umask(self, tmp_path, mask, mode):
        writers = {
            "text.txt": lambda p: write_text_atomic(p, "x\n"),
            "table.csv": lambda p: write_csv_atomic(p, ["h"], [["1"]]),
            "obj.json": lambda p: write_json_atomic(p, {"a": 1}),
            "rec.csv": lambda p: record_to_csv(_random_record(3, 0), p),
        }
        old = os.umask(mask)
        try:
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
            for name, write in writers.items():
                write(tmp_path / name)
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == mode
        for name in writers:
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*writers, "plain.txt"])


class TestJsonBytes:
    """write_json_atomic writes ``json.dumps(obj, sort_keys=True, indent=2)``
    and a final LF; these pin its bytes at values that stress the encoder."""

    @pytest.mark.parametrize(
        "value",
        [
            "[a, {b}]",
            17,
            [],
            [[], {}, [[]], {"": {}}],
            {"a\\": {'\\"': ["]", "\\\\", '\\\\"', ",{"]}, "b": [None, True, 1.5]},
            [float("nan"), float("inf"), -float("inf"), 10**25, -(2**64)],
            {"\u00e9\x00\n": "\u2603\U0001f600\ud800"},
        ],
    )
    def test_edge_values_match_the_indented_encoder(self, tmp_path, value):
        path = tmp_path / "v.json"
        write_json_atomic(path, value)
        assert path.read_bytes() == (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()

    @pytest.mark.parametrize("key", ['x"trials', '"trials": null', 'a\n  "trials": null'])
    def test_only_a_trials_key_is_a_slot(self, tmp_path, key):
        # the encoder writes the key x"trials as "x\"trials", which holds the bytes "trials": null
        rows = [((0.6, 0.0, 0.8), 0.25, (1, 2, 3, 4))]
        path = tmp_path / "v.json"
        write_json_atomic(path, {key: None, "trials": None}, trials=[(rows, False)])
        filled = {key: None, "trials": reference_trials(rows, False)}
        assert path.read_text() == json.dumps(filled, sort_keys=True, indent=2) + "\n"

    def test_record_dict_pinned(self, tmp_path):
        rec = run_measurement_batch(X, direction_from_polar(2.0, 0.5), 10_000, SamplerConfig(7))
        path = tmp_path / "rec.json"
        axes = {"x": [rec.x.x, rec.x.y, rec.x.z], "y": [rec.y.x, rec.y.y, rec.y.z]}
        write_json_atomic(path, {**axes, "a": rec.a.tolist(), "b": rec.b.tolist()})
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "dae0cb708f8ef064f97616541fbdb78330309ae25f79bad4e4a1e6d599c95b64"

    def test_circular_object_raises_value_error(self, tmp_path):
        loop = {"a": []}
        loop["a"].append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            write_json_atomic(tmp_path / "v.json", loop)
        assert list(tmp_path.iterdir()) == []


def _record_ending_a_row_at(size: int, tail: int, seed: int) -> OutcomeRecord:
    """A random record whose CSV, header included, has a row ending at byte ``size``, then ``tail`` more rows."""
    k, length = 0, len("index,a,b\n")
    while length + len(str(k)) + len(",1,1\n") <= size:
        length += len(str(k)) + len(",1,1\n")
        k += 1
    signs = np.ones(2 * k, dtype=np.int8)
    signs[: size - length] = -1  # each -1 adds a byte
    rng = np.random.default_rng(seed)
    a = np.concatenate([signs[0::2], rng.choice([-1, 1], tail)])
    b = np.concatenate([signs[1::2], rng.choice([-1, 1], tail)])
    rec = OutcomeRecord(a=a, b=b, x=X, y=Z)
    text = _record_text(rec)
    assert text[size - 1] == "\n" and text[:size].count("\n") == k + 1
    return rec


_BIG = _random_record(70_001, 17)  # spans three reads
_BIG_TEXT = _record_text(_BIG)
_PLUS_ROW = f"70000,{int(_BIG.a[70_000]):+d},{int(_BIG.b[70_000]):+d}\n"
# canonical rows 0..69999, over three reads
_LONG_BODY = "".join(f"{i},{1 - 2 * (i % 3 == 0)},{1 - 2 * (i % 7 == 0)}\n" for i in range(70_000))


class TestRecordCsvReader:
    """Files of the header and ``[0-9]{1,19},(-?1),(-?1)`` LF lines parse
    without a row loop; every other layout goes through the csv.reader
    loop, and both must agree."""

    REC = run_measurement_batch(X, direction_from_polar(1.0, 2.0), 2000, SamplerConfig(11))
    AFTER_LF = _record_ending_a_row_at(_READ_BYTES, 3000, 1)
    MID_ROW = _record_ending_a_row_at(_READ_BYTES + 3, 3000, 2)  # the first read ends 3 bytes before an LF
    AT_READ_SIZE = _record_ending_a_row_at(2 * _READ_BYTES + 1, 0, 3)

    def _read(self, tmp_path, data: bytes):
        path = tmp_path / "rec.csv"
        path.write_bytes(data)
        return read_record_arrays_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(_record_text(REC, end="\r\n"), id="crlf"),
            pytest.param(_record_text(REC).replace("\n1,", "\n\n1,", 1), id="blank-line"),
            pytest.param(_record_text(REC, row="{i},{a:+d},{b:+d}"), id="plus-sign"),
            pytest.param(_record_text(REC, row="{i}, {a}, {b}"), id="padding-space"),
            pytest.param(_record_text(REC, row='"{i}","{a}",{b}'), id="quoted"),
            pytest.param(_record_text(REC).rstrip("\n"), id="no-final-newline"),
            pytest.param(_record_text(REC), id="as-written"),
        ],
    )
    def test_layouts_agree(self, tmp_path, text):
        path = tmp_path / "ref.csv"
        record_to_csv(self.REC, path)
        assert first_difference(path.read_text(), _record_text(self.REC)) is None
        a, b = self._read(tmp_path, text.encode("utf-8"))
        assert a.dtype == b.dtype == np.int8
        assert np.array_equal(a, self.REC.a) and np.array_equal(b, self.REC.b)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,-1\n1,2,-1\n", "line 3: outcomes must be -1 or +1"),
            ("0,x,-1\n", "line 2: outcomes must be integers"),
            ("0,1,-1\n1,1,11\n", "line 3: outcomes must be -1 or +1"),
            ("0,1,-1\n1,1\n", "line 3: expected 3 fields, got 2"),
            ("0,1,-1\n1,1,-1,1\n", "line 3: expected 3 fields, got 4"),
            ("0,1,-1\n1,--1,1\n", "line 3: outcomes must be integers"),
            ("0,1,-1\n" * 1000 + "1000,0,1\n", "line 1002: outcomes must be -1 or +1"),
            (_LONG_BODY + "70000,0,1\n", "line 70002: outcomes must be -1 or +1"),
            (_LONG_BODY + "70000,1,1\r\n70001,1\n", "line 70003: expected 3 fields, got 2"),
            (_LONG_BODY[:-1] + "\r\n70000,-1,x\n", "line 70002: outcomes must be integers"),
            ("", "no outcome rows"),
        ],
    )
    def test_errors_keep_line_and_message(self, tmp_path, body, message):
        with pytest.raises(ParseError) as err:
            self._read(tmp_path, b"index,a,b\n" + body.encode("ascii"))
        assert str(err.value) == f"{tmp_path / 'rec.csv'}: {message}"

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"index,a,b\n0,1,\xff1\n", id="in-a-row"),
            pytest.param(b"ind\xe9x,a,b\n0,1,1\n", id="in-the-header"),
            pytest.param(b"index,a,b\n" + _LONG_BODY.encode("ascii") + b"70000,\xc3,1\n", id="past-the-first-read"),
        ],
    )
    def test_non_utf8_file_is_a_parse_error_naming_the_file(self, tmp_path, data):
        # the decoder's byte position counts from an 8192-byte chunk, so the message gives none
        with pytest.raises(ParseError) as err:
            self._read(tmp_path, data)
        assert str(err.value) == f"{tmp_path / 'rec.csv'}: not a UTF-8 text file"

    @pytest.mark.parametrize(
        "rec, text, byte_path",
        [
            pytest.param(REC, _record_text(REC), True, id="as-written"),
            pytest.param(REC, _record_text(REC).rstrip("\n"), True, id="no-final-newline"),
            pytest.param(REC, _record_text(REC).replace("\n5,", "\n05,", 1), True, id="padded-index"),
            pytest.param(REC, _record_text(REC).replace("\n5,", "\n6,", 1), True, id="repeated-index"),
            pytest.param(REC, _record_text(REC).replace("\n", "\n\n", 1), False, id="blank-line"),
            pytest.param(REC, _record_text(REC, end="\r\n"), False, id="crlf"),
            pytest.param(_BIG, _BIG_TEXT, True, id="multi-block"),
            pytest.param(AFTER_LF, _record_text(AFTER_LF), True, id="read-ends-after-lf"),
            pytest.param(MID_ROW, _record_text(MID_ROW), True, id="read-ends-mid-row"),
            pytest.param(AT_READ_SIZE, _record_text(AT_READ_SIZE)[:-1], True, id="no-final-newline-at-read-size"),
            pytest.param(_BIG, _BIG_TEXT[: _BIG_TEXT.rindex("\n70000,") + 1] + _PLUS_ROW, False, id="late-plus-sign"),
            pytest.param(_BIG, _BIG_TEXT[:-1] + "\r\n", False, id="late-crlf"),
            pytest.param(REC, _record_text(REC).replace("\n5,", "\n,", 1), False, id="empty-index"),
            pytest.param(REC, _record_text(REC).replace("\n5,", "\n-5,", 1), False, id="minus-index"),
            pytest.param(REC, _record_text(REC).replace("\n5,", "\n+5,", 1), False, id="plus-index"),
            pytest.param(REC, _record_text(REC).replace("\n5,", f"\n{10**19},", 1), False, id="20-digit-index"),
            pytest.param(REC, _record_text(REC).replace("\n5,", f"\n{10**18},", 1), True, id="19-digit-index"),
            pytest.param(
                REC,
                "index,a,b\n" + "".join(f"{7 * i % 1000},{a},{b}\n" for i, (a, b) in enumerate(REC.pairs())),
                True,
                id="non-monotone-index",
            ),
        ],
    )
    def test_only_grammar_rows_skip_the_row_loop(self, tmp_path, monkeypatch, rec, text, byte_path):
        def no_row_loop(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(csv, "reader", no_row_loop)
        if byte_path:
            a, b = self._read(tmp_path, text.encode("ascii"))
            assert np.array_equal(a, rec.a) and np.array_equal(b, rec.b)
        else:
            with pytest.raises(AssertionError, match="csv.reader called"):
                self._read(tmp_path, text.encode("ascii"))
            monkeypatch.undo()
            a, b = self._read(tmp_path, text.encode("ascii"))
            assert np.array_equal(a, rec.a) and np.array_equal(b, rec.b)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["as-written", "crlf"])
    def test_a_pipe_is_read_whole(self, tmp_path, end):
        # a pipe cannot seek back for the row loop, as `bayes --record /dev/stdin` needs
        fifo = tmp_path / "rec.fifo"
        os.mkfifo(fifo)
        text = _record_text(self.REC, end=end).encode()
        writer = threading.Thread(target=fifo.write_bytes, args=(text,), daemon=True)
        writer.start()
        a, b = read_record_arrays_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(a, self.REC.a) and np.array_equal(b, self.REC.b)


def _whole_file_record_bytes(a: np.ndarray, b: np.ndarray) -> bytearray:
    """The record CSV as the former writer built it: one NUL-padded (n + 1, W) byte matrix, header in row 0."""
    n = a.size
    digits = len(str(n - 1))
    width = -(-digits // 8) * 8
    text = bytearray((n + 1) * (width + 8))
    rows = np.frombuffer(text, dtype=np.uint8).reshape(n + 1, width + 8)
    rows[0, :10] = np.frombuffer(b"index,a,b\n", dtype=np.uint8)
    body = rows[1:]
    cycle = np.tile(np.arange(48, 58, dtype=np.uint8), n // 10 + 1)
    for k in range(digits):
        run = 10**k
        column = body[:, width - 1 - k]
        full = n - n % run
        column[:full].reshape(-1, run)[...] = cycle[: full // run, None]
        column[full:] = cycle[full // run]
        if k:
            column[:run] = 0
    tails = np.frombuffer(b",1,1\n\0\0\0,1,-1\n\0\0,-1,1\n\0\0,-1,-1\n\0", dtype=np.uint64)
    body.view(np.uint64)[:, -1] = tails.take(2 * (a < 0).view(np.int8) + (b < 0).view(np.int8))
    return text.translate(None, b"\0")


def _whole_file_read(path):
    """The former reader: the file's bytes, kept if re-writing their signs gives them back, else csv.reader.

    A file that is not UTF-8 raises the ParseError that names it, as the block reader does.
    """
    data = Path(path).read_bytes()
    if data.startswith(b"index,a,b\n") and len(data) > 10:
        whole = data if data.endswith(b"\n") else data + b"\n"
        buf = np.frombuffer(whole, dtype=np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))[1:]
        neg_b = buf.take(ends - 2) == ord("-")
        ends -= 4
        ends -= neg_b
        neg_a = buf.take(ends) == ord("-")
        a = 1 - 2 * neg_a.view(np.int8)
        b = 1 - 2 * neg_b.view(np.int8)
        if _whole_file_record_bytes(a, b) == whole:
            return a, b
    a_vals, b_vals = [], []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["index", "a", "b"]:
                raise ParseError(f"{path}: line 1: expected header 'index,a,b', got {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ParseError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
                try:
                    a, b = int(row[1]), int(row[2])
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: outcomes must be integers") from None
                if a not in (-1, 1) or b not in (-1, 1):
                    raise ParseError(f"{path}: line {lineno}: outcomes must be -1 or +1")
                a_vals.append(a)
                b_vals.append(b)
        except csv.Error as e:
            raise ParseError(f"{path}: line {reader.line_num}: {e}") from None
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not a UTF-8 text file") from None
    if not a_vals:
        raise ParseError(f"{path}: no outcome rows")
    return np.array(a_vals, dtype=np.int8), np.array(b_vals, dtype=np.int8)


def _read_outcome(read, path):
    try:
        a, b = read(path)
    except Exception as e:  # the readers must fail alike, whatever the exception
        return type(e), str(e)
    return a.dtype, a.tobytes(), b.dtype, b.tobytes()


class TestRecordCsvReaderDifferential:
    """The block reader against the former whole-file reader on mutated record files."""

    MUTATION_BYTES = b"0123456789,-+ \"\n\r\x00\xff\xe9"

    def _mutated(self, rng) -> bytes:
        # log-uniform in 1 .. 1e3, and 1e4 + 1 in one file of 50
        n = 10**4 + 1 if rng.random() < 0.02 else int(np.exp(rng.uniform(0.0, math.log(1000))))
        signs = rng.choice([-1, 1], (n, 2)).tolist()
        data = bytearray(("index,a,b\n" + "".join(f"{i},{a},{b}\n" for i, (a, b) in enumerate(signs))).encode())
        for _ in range(int(rng.integers(0, 4))):
            at = int(rng.integers(len(data) + 1)) if rng.random() < 0.7 else len(data) - int(rng.integers(1, 12))
            at = min(max(at, 0), len(data) - 1)
            byte = self.MUTATION_BYTES[int(rng.integers(len(self.MUTATION_BYTES)))]
            kind = rng.integers(4)
            if kind == 0:
                data[at] = byte
            elif kind == 1:
                data.insert(at, byte)
            elif kind == 2:
                del data[at]
            else:
                other = int(rng.integers(len(data)))
                data[at], data[other] = data[other], data[at]
            if not data:
                break
        if rng.random() < 0.2:
            data = data.rstrip(b"\n")
        return bytes(data)

    def test_mutated_files_read_as_the_whole_file_reader_reads_them(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20261019)
        path = tmp_path / "rec.csv"
        accepted = 0
        for k in range(2000):
            data = self._mutated(rng)
            # smaller reads put read boundaries all through these files
            size = _READ_BYTES if rng.random() < 0.2 else int(rng.integers(64, len(data) + 65))
            monkeypatch.setattr(serialize, "_READ_BYTES", size)
            path.write_bytes(data)
            expected = _read_outcome(_whole_file_read, path)
            assert _read_outcome(read_record_arrays_csv, path) == expected, (k, data[:200])
            accepted += expected[0] == np.int8
        assert 100 < accepted < 2000

    def _index(self, rng, previous: str, digits: int, odd: float) -> str:
        if rng.random() < 0.1:
            return previous
        text = "".join(map(str, rng.integers(0, 10, int(rng.integers(1, digits + 1)))))
        if rng.random() < odd:
            text = ("-" + text, "+" + text, " " + text, text + " ", "")[int(rng.integers(5))]
        return text

    def test_any_index_column_reads_as_the_whole_file_reader_reads_it(self, tmp_path, monkeypatch):
        # random index columns: 0 to 22 digits, leading zeros, repeats, and in some files signs and spaces
        rng = np.random.default_rng(20261020)
        path = tmp_path / "rec.csv"
        row_loop = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *args: row_loop.append(1) or reader(*args))
        byte_path = other_index = 0
        for k in range(500):
            n = int(np.exp(rng.uniform(0.0, math.log(1000))))
            digits = int(rng.integers(1, 23))
            odd = (0.0, 0.0, 0.002, 0.05)[int(rng.integers(4))]
            index, lines = "0", []
            for a, b in rng.choice([-1, 1], (n, 2)).tolist():
                index = self._index(rng, index, digits, odd)
                lines.append(f"{index},{a},{b}\n")
            canonical = [line.split(",")[0] for line in lines] == [str(i) for i in range(n)]
            data = bytearray(("index,a,b\n" + "".join(lines)).encode())
            for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.5 else 0):
                at = int(rng.integers(len(data)))
                byte = self.MUTATION_BYTES[int(rng.integers(len(self.MUTATION_BYTES)))]
                if rng.random() < 0.5:
                    data[at] = byte
                else:
                    data.insert(at, byte)
            if rng.random() < 0.2:
                data = data.rstrip(b"\n")
            size = _READ_BYTES if rng.random() < 0.2 else int(rng.integers(64, len(data) + 65))
            monkeypatch.setattr(serialize, "_READ_BYTES", size)
            path.write_bytes(bytes(data))
            expected = _read_outcome(_whole_file_read, path)
            calls = len(row_loop)
            assert _read_outcome(read_record_arrays_csv, path) == expected, (k, bytes(data[:200]))
            if len(row_loop) == calls:
                byte_path += 1
                other_index += not canonical
        assert 100 < byte_path < 450 and other_index > 100


class TestDensityCurveCsv:
    def test_columns_and_even_peak_pair(self, tmp_path):
        # one tally's curve, as posterior-family --tally N_PLUS,N_MINUS writes it
        from singlet_frame import SignTally, posterior_theta_density
        from singlet_frame.cli import main

        path = tmp_path / "curve.csv"
        assert main(["posterior-family", "--tally", "5,6", "--resolution", "801", "--out", str(path)]) == 0
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["n_plus", "n_minus", "theta", "density"]
            rows = [(int(n_plus), int(n_minus), float(t), float(d)) for n_plus, n_minus, t, d in reader]
        assert len(rows) == 801 and {row[:2] for row in rows} == {(5, 6)}
        assert rows[0][2] == -math.pi and rows[-1][2] == math.pi
        for (_, _, t, d) in rows[:50]:
            assert d == pytest.approx(posterior_theta_density(t, SignTally(5, 6)), rel=1e-12, abs=1e-300)


class TestParseConfig:
    def test_minimal_sampled(self):
        cfg = parse_config(_minimal())
        assert cfg["mode"] == "sampled"
        assert cfg["alice_direction"] == {"theta": 1.5, "phi": 2.1}
        assert cfg["refine_rounds"] == 3  # default
        assert cfg["stream"] == 0
        assert cfg["prior"] == {"enabled": False} and axis_priors(cfg) == (HemispherePrior(None),)

    def test_exact_mode_needs_no_seed(self):
        data = _minimal(mode="exact")
        del data["seed"]
        cfg = parse_config(data)
        assert "seed" not in cfg

    def test_missing_seed_in_sampled_mode(self):
        data = _minimal()
        del data["seed"]
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config(data)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="'mode'"):
            parse_config(_minimal(mode="both"))

    def test_direction_and_frame_exclusive(self):
        data = _minimal()
        data["alice_frame"] = [
            {"theta": math.pi / 2, "phi": 0.0},
            {"theta": math.pi / 2, "phi": math.pi / 2},
            {"theta": 0.0, "phi": 0.0},
        ]
        with pytest.raises(ConfigError, match="alice_direction"):
            parse_config(data)

    def test_missing_trials(self):
        data = _minimal()
        del data["trials"]
        with pytest.raises(ConfigError, match="'trials'"):
            parse_config(data)

    def test_bad_batch(self):
        with pytest.raises(ConfigError, match="'batch'"):
            parse_config(_minimal(batch=0))

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="'bogus'"):
            parse_config(_minimal(bogus=1))

    def test_prior_requires_pole(self):
        with pytest.raises(ConfigError, match="'prior.pole'"):
            parse_config(_minimal(prior={"enabled": True}))

    def test_prior_pole_parsed(self):
        cfg = parse_config(_minimal(prior={"enabled": True, "pole": {"theta": 0.5, "phi": 0.1}}))
        assert cfg["prior"] == {"enabled": True, "pole": {"theta": 0.5, "phi": 0.1}}
        assert axis_priors(cfg) == (HemispherePrior.around(direction_from_polar(0.5, 0.1)),)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_poles_only_for_frames(self, enabled):
        # a disabled prior's poles are checked as an enabled one's are, then dropped
        bad = _minimal(prior={"enabled": enabled, "poles": [{"theta": 0.0, "phi": 0.0}] * 3})
        with pytest.raises(ConfigError, match="'prior.poles'"):
            parse_config(bad)

    def test_orthonormalize_only_for_frames(self):
        with pytest.raises(ConfigError, match="'orthonormalize'"):
            parse_config(_minimal(orthonormalize=True))

    def test_frame_must_be_orthonormal(self):
        data = _minimal()
        del data["alice_direction"]
        data["alice_frame"] = [
            {"theta": math.pi / 2, "phi": 0.0},
            {"theta": math.pi / 2, "phi": 0.3},
            {"theta": 0.0, "phi": 0.0},
        ]
        with pytest.raises(ConfigError, match="'alice_frame'"):
            parse_config(data)

    def test_valid_frame_with_per_axis_poles(self):
        data = _minimal()
        del data["alice_direction"]
        data["alice_frame"] = [
            {"theta": math.pi / 2, "phi": 0.0},
            {"theta": math.pi / 2, "phi": math.pi / 2},
            {"theta": 0.0, "phi": 0.0},
        ]
        data["prior"] = {"enabled": True, "poles": data["alice_frame"]}
        data["orthonormalize"] = True
        cfg = parse_config(data)
        assert "alice_frame" in cfg and len(axis_priors(cfg)) == 3

    @pytest.mark.parametrize("overrides, field", [
        pytest.param({"alice_direction": {"theta": "x", "phi": 0.0}}, "alice_direction.theta", id="alice_direction"),
        pytest.param({"prior": {"enabled": False, "pole": "garbage"}}, "prior.pole", id="disabled-prior-pole"),
    ])
    def test_bad_angle_field_named(self, overrides, field):
        with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")):
            parse_config(_minimal(**overrides))

    # each angle field of a config, the angle pair that holds it, and the
    # prior's "enabled" value (None: no such key, so disabled)
    ANGLE_PAIRS = [
        pytest.param(field, pair, enabled, id=field + {True: "", False: "-disabled", None: "-enabled-absent"}[enabled])
        for field, pair, enabled in [
            ("alice_direction.theta", lambda data: data["alice_direction"], True),
            ("alice_direction.phi", lambda data: data["alice_direction"], True),
            ("alice_frame[1].theta", lambda data: data["alice_frame"][1], True),
            ("prior.pole.phi", lambda data: data["prior"]["pole"], True),
            ("prior.poles[2].phi", lambda data: data["prior"]["poles"][2], True),
            ("prior.pole.theta", lambda data: data["prior"]["pole"], None),
            ("prior.poles[2].phi", lambda data: data["prior"]["poles"][2], False),
        ]
    ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -(10**400)], ids=["nan", "inf", "int-too-large"])
    @pytest.mark.parametrize("field, pair, enabled", ANGLE_PAIRS)
    def test_non_finite_angle_field_named(self, field, pair, enabled, value):
        # every angle pair of a config passes one rule; an int too large for a float
        # compares below math.inf, so it must fail the rule as NaN and inf do
        frame = [
            {"theta": math.pi / 2, "phi": 0.0},
            {"theta": math.pi / 2, "phi": math.pi / 2},
            {"theta": 0.0, "phi": 0.0},
        ]
        data = _minimal(prior={"enabled": True, "pole": {"theta": 0.5, "phi": 0.1}})
        if "[" in field:
            del data["alice_direction"]
            data["alice_frame"] = frame
            data["prior"] = {"enabled": True, "poles": [dict(pair) for pair in frame]}
        data["prior"]["enabled"] = enabled
        if enabled is None:
            del data["prior"]["enabled"]
        pair(data)[field.rsplit(".", 1)[1]] = value
        with pytest.raises(ConfigError, match=re.escape(f"field '{field}': must be a finite number")):
            parse_config(data)

    def test_bad_stream(self):
        with pytest.raises(ConfigError, match="'stream'"):
            parse_config(_minimal(stream=-4))


class TestCanonicalForm:
    def test_round_trip_semantic_identity(self):
        for data in (
            _minimal(),
            _minimal(prior={"enabled": True, "pole": {"theta": 0.4, "phi": 0.2}}, jitter_seed=9),
            _minimal(mode="exact"),
        ):
            cfg = parse_config(data)
            assert parse_config(cfg) == cfg
        # a disabled prior's pole is checked, then dropped
        disabled = parse_config(_minimal(prior={"enabled": False, "pole": {"theta": 0.4, "phi": 0.2}}))
        assert disabled == parse_config(_minimal())

    def test_canonical_is_json_stable(self):
        cfg = parse_config(_minimal())
        once = json.dumps(cfg, sort_keys=True)
        twice = json.dumps(parse_config(json.loads(once)), sort_keys=True)
        assert once == twice


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_minimal()))
        assert load_config(path)["trials"] == 10

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n "mode": "exact",\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        # an unreadable file is an I/O error (exit 3 at the CLI), not a config error
        with pytest.raises(FileNotFoundError, match="absent.json"):
            load_config(tmp_path / "absent.json")

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"mode": "\xff"}')
        with pytest.raises(ConfigError, match="cfg.json.*can't decode byte 0xff"):
            load_config(path)


class TestOutcomeRecordEquality:
    def test_distinguishes_settings(self):
        a = OutcomeRecord(a=np.array([1]), b=np.array([-1]), x=X, y=Z)
        b = OutcomeRecord(a=np.array([1]), b=np.array([-1]), x=Z, y=Z)
        assert a != b

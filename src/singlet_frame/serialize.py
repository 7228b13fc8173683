"""File formats: atomic CSV/JSON writers and the outcome-record CSV reader.

All text output is UTF-8 with LF line endings and a header row on CSV.
Floats are written with 17 significant digits in CSV; JSON floats use
Python's shortest round-trip representation.  JSON is
``json.dumps(obj, sort_keys=True, indent=2)`` plus a final LF, rendered
as one ``%`` of the document's leaves over a layout cached per document
shape (its containers, keys and kinds of leaf); a run report's
``trials`` lists are laid out from the transfer's rows, each trial a copy
of one template, in the bytes that call would give.
Files are written atomically (temp file + rename in the target directory)
with the mode ``open`` would give them (0o666 less the umask).

Outcome-record CSV: header ``a,b``; one row per pair, its outcomes in
{-1, +1}; the settings are not carried.  Rows are written in blocks, each
one NUL-padded word per row with the NULs dropped, and read back in
blocks of whole lines; a file is read as bytes only when every row is
``(-?1),(-?1)`` and LF.  Files of the former ``index,a,b`` layout are
still read, by ``csv.reader``, which ignores the index.  Memory is
O(block) to write, and O(block) plus the two int8 output arrays to read.
"""

from __future__ import annotations

import array
import csv
import io
import itertools
import json
import os
import secrets
from functools import lru_cache
from pathlib import Path

import numpy as np

from .sampler import OutcomeRecord

__all__ = [
    "ParseError",
    "format_float",
    "write_text_atomic",
    "write_csv_atomic",
    "write_json_atomic",
    "record_to_csv",
    "read_record_arrays_csv",
]

RECORD_CSV_HEADER = ["a", "b"]
_RECORD_HEADER_LINE = (",".join(RECORD_CSV_HEADER) + "\n").encode("ascii")
_NEWLINE, _COMMA, _MINUS, _ONE = b"\n,-1"
# a row as one NUL-padded word, at 2 * (a < 0) + (b < 0)
_RECORD_ROWS = np.frombuffer(b"1,1\n\0\0\0\0" b"1,-1\n\0\0\0" b"-1,1\n\0\0\0" b"-1,-1\n\0\0", dtype=np.uint64)
# rows rendered per written block (8 bytes each before the NULs go); 16K-256K rows ran alike, 4K was slower
_WRITE_ROWS = 16_384
# bytes per read of a record file; a row of a written file is far shorter
_READ_BYTES = 256 * 1024


class ParseError(ValueError):
    """Input file violates the documented format; message carries the location."""


def format_float(value: float) -> str:
    """17-significant-digit text form, enough to round-trip a double."""
    return "%.17g" % value


def _write_bytes_atomic(path, chunks) -> None:
    """Write an iterable of bytes-like chunks via a temp file and rename, so readers never see partial files."""
    target = Path(path)
    tmp = target.parent / f"{target.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0), 0o666)
    try:
        try:
            for chunk in chunks:
                view = memoryview(chunk)
                while view:  # a write may take only part of what it is given
                    view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text_atomic(path, text: str) -> None:
    """Write UTF-8 text atomically (see ``_write_bytes_atomic``)."""
    _write_bytes_atomic(path, [text.encode("utf-8")])


def write_csv_atomic(path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())


_encode_string = json.encoder.encode_basestring_ascii
# a "trials": None entry filled from rows, as (_SLOT, row count, counts flag) in a shape
_SLOT = "slot"
# one trial of a slot, as json.dumps lays out the dict of its fields: the count table's joint mm, mp, pm, pp (or
# null), the direction's x, y, z and mi_estimate are leaves; the trial index is written into the layout
_COUNTS_SHAPE = ("{", "m_joint", ("{", "mm", "%d", "mp", "%d", "pm", "%d", "pp", "%d"))
_TRIAL_FIELDS = ("direction", ("[", "%r", "%r", "%r"), "mi_estimate", "%r", "trial_index")


def _key_text(key) -> str:
    """A dict key as the encoder turns it into a string before quoting it: a str, or a scalar's JSON text."""
    if isinstance(key, str):
        return str.__str__(key)
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _slot_shape(rows, counts: bool, leaves: list) -> tuple:
    """A trials slot's shape; appends each row's leaves in the order its trial writes them."""
    start = len(leaves)
    if counts:
        for (x, y, z), s, (pp, pm, mp, mm) in rows:
            leaves += (mm, mp, pm, pp, x, y, z, s)
    else:
        for (x, y, z), s, _ in rows:
            leaves += (x, y, z, s)
    return (_SLOT, (len(leaves) - start) // (8 if counts else 4), bool(counts))


def _shape(value, leaves: list, slots) -> str | tuple:
    """The shape of ``value``; appends its leaves to ``leaves`` in the order they are written.

    Values are told apart in the encoder's order.  A leaf's shape is its
    ``%`` field, or its text for ``null``, ``true`` and ``false``: a string
    is ``%s`` of its encoded text, an int ``%d``, a finite float ``%r``;
    a float subclass, a NaN or an infinity is ``%s`` of the encoder's
    text.  A list or tuple is ``("[", *items)``, a dict
    ``("{", key, value, ...)`` in sorted-key order with each key as its
    text.  With ``slots`` (an iterator of ``(rows, counts)`` pairs) each
    ``"trials": None`` entry takes the next pair (``_slot_shape``).
    """
    if isinstance(value, str):
        leaves.append(_encode_string(value))
        return "%s"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):  # %d writes a subclass as int.__repr__ does
        leaves.append(value)
        return "%d"
    if isinstance(value, float):
        if type(value) is float and value - value == 0.0:
            leaves.append(value)
            return "%r"
        leaves.append(json.dumps(value))  # NaN, Infinity, -Infinity, or float.__repr__ of a subclass
        return "%s"
    if isinstance(value, (list, tuple)):
        return ("[", *[_shape(item, leaves, slots) for item in value])
    if isinstance(value, dict):
        shape = ["{"]
        for key, item in sorted(value.items()):
            if type(key) is not str:
                key = _key_text(key)
            if item is None and slots is not None and key == "trials":
                pair = next(slots, None)
                if pair is None:
                    raise ValueError("write_json_atomic: more \"trials\": None entries than trials pairs")
                shape += (key, _slot_shape(*pair, leaves))
            else:
                shape += (key, _shape(item, leaves, slots))
        return tuple(shape)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _container(kind: str, items: list, indent: int) -> str:
    """A list (``kind`` ``[``) or dict (``{``) of laid-out ``items`` on a line indented ``indent`` spaces."""
    close = "]" if kind == "[" else "}"
    if not items:
        return kind + close
    pad = "\n" + " " * (indent + 2)
    return kind + pad + ("," + pad).join(items) + "\n" + " " * indent + close


@lru_cache(maxsize=256)  # a report's axes, and the trials of its slots, repeat one shape
def _layout(shape, indent: int) -> str:
    """The ``%`` template of a value of ``shape`` that starts on a line indented ``indent`` spaces.

    It is the text ``json.dumps(..., indent=2)`` gives, with each leaf its
    ``%`` field and every other ``%`` doubled.  A slot of n rows is laid
    out as n copies of one trial dict (``_TRIAL_FIELDS``), each with its
    index.
    """
    if isinstance(shape, str):
        return shape
    kind, *rest = shape
    if kind == _SLOT:
        n, counts = rest
        trial = ("{", "counts", _COUNTS_SHAPE if counts else "null", *_TRIAL_FIELDS, "\0")
        head, tail = _layout(trial, indent + 2).split("\0")  # NUL stands for the index: no layout holds one
        return _container("[", [f"{head}{i}{tail}" for i in range(n)], indent)
    if kind == "[":
        return _container(kind, [_layout(item, indent + 2) for item in rest], indent)
    keys = [_encode_string(key).replace("%", "%%") for key in rest[::2]]
    return _container(kind, [f"{key}: {_layout(item, indent + 2)}" for key, item in zip(keys, rest[1::2])], indent)


@lru_cache(maxsize=32)
def _document_layout(shape) -> str:
    """The ``%`` template of a whole document of ``shape``, final LF included."""
    return _layout(shape, 0) + "\n"


def write_json_atomic(path, obj, trials=()) -> None:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2)``
    and LF, rendered as one ``%`` of ``obj``'s leaves over a layout
    cached per shape (``_shape``, ``_document_layout``).  ``trials`` holds
    one ``(rows, counts)`` pair per ``"trials": None`` entry of ``obj``, in
    the order the entries are written; each entry is written as if ``obj``
    had held the list of its rows' trial dicts: each
    ``TransferResult.coarse_rows()`` row ``(direction, mi_estimate,
    counts)`` of Python floats and ints gives ``trial_index``,
    ``direction``, ``mi_estimate`` and, with ``counts``, its four joint
    counts under ``m_joint`` (without, ``null``).  An object the encoder
    refuses raises its error before any file is created.
    """
    leaves = []
    slots = iter(trials) if trials else None
    try:
        shape = _shape(obj, leaves, slots)
        if slots is not None and next(slots, None) is not None:
            raise ValueError('write_json_atomic: more trials pairs than "trials": None entries')
    except (TypeError, ValueError, RecursionError):  # a circular reference recurses to the limit
        json.dumps(obj, sort_keys=True, indent=2)  # raises the encoder's own error, where it has one
        raise
    _write_bytes_atomic(path, [(_document_layout(shape) % tuple(leaves)).encode("ascii")])


def _record_rows(a: np.ndarray, b: np.ndarray) -> bytearray:
    """The record CSV rows of outcomes ``a``, ``b``, byte-identical to ``csv.writer``.

    Row i is ``1`` or ``-1``, ``,``, ``1`` or ``-1`` and LF.  Each row is
    laid out as one of four NUL-padded uint64 words, picked by the signs;
    dropping the NULs leaves the rows.
    """
    text = bytearray(8 * a.size)
    index = 2 * (a < 0).view(np.int8) + (b < 0).view(np.int8)
    _RECORD_ROWS.take(index, out=np.frombuffer(text, dtype=np.uint64), mode="clip")  # "raise" would buffer out
    return text.translate(None, b"\0")


def record_to_csv(record: OutcomeRecord, path) -> None:
    """Write ``record``'s outcomes atomically as the ``a,b`` record CSV, ``_WRITE_ROWS`` rows per block."""
    a, b = record.a, record.b
    blocks = (_record_rows(a[i : i + _WRITE_ROWS], b[i : i + _WRITE_ROWS]) for i in range(0, a.size, _WRITE_ROWS))
    _write_bytes_atomic(path, itertools.chain([_RECORD_HEADER_LINE], blocks))


def _grammar_signs(block: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, b) of a uint8 block of whole lines if every line is ``(-?1),(-?1)`` and LF, else None.

    From each LF a position walks back over its line: ``1``, an optional
    ``-`` (b is -1), ``,``, ``1`` and an optional ``-`` (a is -1).  It
    must then stand on the LF before, or just before the block, so every
    byte of the block is checked.  Positions are clipped to the block: a
    first line too short for them ends the walk before it.
    """
    ends = np.flatnonzero(block == _NEWLINE)
    at = ends - 1
    ok = block.take(at, mode="clip") == _ONE
    at -= 1
    neg_b = block.take(at, mode="clip") == _MINUS
    at -= neg_b
    ok &= block.take(at, mode="clip") == _COMMA
    at -= 1
    ok &= block.take(at, mode="clip") == _ONE
    at -= 1
    neg_a = block.take(at, mode="clip") == _MINUS
    at -= neg_a
    at[1:] -= ends[:-1]  # 0 where the walk ends on the LF before
    at[0] += 1
    if at.any() or not ok.all():
        return None
    return 1 - 2 * neg_a.view(np.int8), 1 - 2 * neg_b.view(np.int8)


def _record_blocks(fh) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, b) if binary file ``fh`` is the header and lines of the record grammar, else None.

    A missing final LF is allowed.  The file is read into one buffer of
    ``_READ_BYTES``, each read after the part of a line the last one left,
    and checked by ``_grammar_signs`` in blocks of whole lines.
    """
    buf = bytearray(_READ_BYTES)
    view = memoryview(buf)
    filled = fh.readinto(buf)
    start = len(_RECORD_HEADER_LINE)
    if buf[:start] != _RECORD_HEADER_LINE:
        return None
    a_parts, b_parts = [], []
    while True:
        cut = buf.rfind(_NEWLINE, start, filled) + 1
        if cut:
            signs = _grammar_signs(np.frombuffer(buf, dtype=np.uint8, count=cut - start, offset=start))
            if signs is None:
                return None
            a_parts.append(signs[0])
            b_parts.append(signs[1])
            start = cut
        rest = filled - start
        if rest == len(buf):  # no grammar line is that long
            return None
        buf[:rest] = buf[start:filled]
        filled = rest + fh.readinto(view[rest:])
        if filled == rest:
            if not rest:
                break
            buf[rest] = _NEWLINE  # at the end, close a last line with no LF
            filled += 1
        start = 0
    if not a_parts:
        return None
    return np.concatenate(a_parts), np.concatenate(b_parts)


def _csv_rows(reader, path):
    """The rows of ``reader``; a csv.Error becomes a ParseError naming its line, a decode error one naming the file.

    Text is decoded in chunks ahead of the row being parsed, so a decode
    error's position says nothing about the row.
    """
    try:
        yield from reader
    except csv.Error as e:
        raise ParseError(f"{path}: line {reader.line_num}: {e}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None


def read_record_arrays_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an outcome CSV back into (a, b) arrays.

    Accepts what ``csv.reader`` accepts, with an ``a,b`` header and rows
    of two fields, or the former ``index,a,b`` header and rows of three
    (the index is not checked), whose outcomes parse as -1 or +1.  Raises
    ParseError naming the 1-based line of the first offending row, or only
    the file when it is not UTF-8.  Files whose rows all match
    ``(-?1),(-?1)`` and LF under the exact ``a,b`` header, as
    ``record_to_csv`` writes them, are parsed in byte blocks
    (``_record_blocks``); any other file is read again from its start by
    the row loop below, which defines the format and gives the error
    messages.  A file that cannot seek (a pipe) is read whole first.
    """
    path = Path(path)
    a_vals, b_vals = array.array("b"), array.array("b")  # one byte per outcome
    with open(path, "rb", buffering=0) as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        plain = _record_blocks(fh)
        if plain is not None:
            return plain
        fh.seek(0)
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            rows = _csv_rows(csv.reader(text), path)
            header = next(rows, None)
            if header not in (RECORD_CSV_HEADER, ["index", *RECORD_CSV_HEADER]):
                raise ParseError(f"{path}: line 1: expected header 'a,b' or 'index,a,b', got {header!r}")
            for lineno, row in enumerate(rows, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
                try:
                    a = int(row[-2])
                    b = int(row[-1])
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: outcomes must be integers") from None
                if a not in (-1, 1) or b not in (-1, 1):
                    raise ParseError(f"{path}: line {lineno}: outcomes must be -1 or +1")
                a_vals.append(a)
                b_vals.append(b)
    if not a_vals:
        raise ParseError(f"{path}: no outcome rows")
    return np.frombuffer(a_vals, dtype=np.int8), np.frombuffer(b_vals, dtype=np.int8)

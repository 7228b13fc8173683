"""File formats: atomic CSV/JSON writers and the outcome-record CSV reader.

All text output is UTF-8 with LF line endings and a header row on CSV.
Floats are written with 17 significant digits in CSV; JSON floats use
Python's shortest round-trip representation.  JSON is
``json.dumps(obj, sort_keys=True, indent=2)`` plus a final LF; a run
report's ``trials`` lists are rendered from the transfer's rows, one
``%`` template per trial, in the bytes that call would give.
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
import re
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
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
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


# a "trials": None entry to be filled from rows, its group the entry's indent.  With
# indent=2 every member starts its own line and no encoded string holds a raw LF
_TRIALS_SLOT = re.compile(rb'^( *)"trials": null', re.MULTILINE)


@lru_cache(maxsize=8)
def _trial_template(indent: int, counts: bool) -> str:
    """One trial as ``json.dumps`` lays it out, as a ``%`` template indented by ``indent`` spaces.

    Its fields come in sorted-key order: the count table's joint mm, mp,
    pm, pp (or ``null``), the direction's x, y, z, then mi_estimate and
    trial_index.
    """
    table = {"m_joint": dict.fromkeys(("mm", "mp", "pm", "pp"), "%d")}
    trial = {"counts": table if counts else None, "direction": ["%r"] * 3, "mi_estimate": "%r", "trial_index": "%d"}
    text = json.dumps(trial, sort_keys=True, indent=2).replace('"%d"', "%d").replace('"%r"', "%r")
    pad = " " * indent
    return pad + text.replace("\n", "\n" + pad)


def _trials_json(rows, indent: int, counts: bool) -> str:
    """The ``trials`` list of nonempty ``(direction, mi_estimate, counts)`` rows, its key at ``indent`` spaces.

    Each row is a ``TransferResult.coarse_rows()`` row of Python floats and
    ints, so ``%r`` and ``%d`` give the encoder's bytes.  With ``counts``
    each trial carries its count table, the four joint counts under
    ``m_joint``; without, ``null``.
    """
    template = _trial_template(indent + 2, counts)
    if counts:
        items = [template % (mm, mp, pm, pp, x, y, z, s, i) for i, ((x, y, z), s, (pp, pm, mp, mm)) in enumerate(rows)]
    else:
        items = [template % (x, y, z, s, i) for i, ((x, y, z), s, _) in enumerate(rows)]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def write_json_atomic(path, obj, trials=()) -> None:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline.

    ``trials`` holds one ``(rows, counts)`` pair per ``"trials": None``
    entry of ``obj``, in the order the entries are written; each entry is
    written as the list ``_trials_json(rows, ..., counts)`` renders, as if
    ``obj`` had held that list.
    """
    data = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")
    if trials:
        head, *slots = _TRIALS_SLOT.split(data)
        parts = [head]
        for (rows, counts), indent, tail in zip(trials, slots[::2], slots[1::2], strict=True):
            parts += [indent, b'"trials": ', _trials_json(rows, len(indent), counts).encode("ascii"), tail]
        data = b"".join(parts)
    _write_bytes_atomic(path, [data])


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

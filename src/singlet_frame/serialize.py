"""File formats: atomic CSV/JSON writers and the outcome-record CSV reader.

All text output is UTF-8 with LF line endings and a header row on CSV.
Floats are written with 17 significant digits in CSV; JSON floats use
Python's shortest round-trip representation.  JSON is
``json.dumps(obj, sort_keys=True, indent=2)`` plus a final LF; a run
report's ``trials`` lists are rendered from the transfer's rows, one
``%`` template per trial, in the bytes that call would give.
Files are written atomically (temp file + rename in the target directory)
with the mode ``open`` would give them (0o666 less the umask).

Outcome-record CSV: header ``index,a,b``; one row per pair with a 0-based
index and outcomes in {-1, +1}; the settings are not carried.  Rows are
written in blocks, each rendered from a NUL-padded matrix of fixed-width
rows, and read back in blocks of whole lines; a file is read as bytes
only when re-writing each block's outcomes gives back the same block.
Memory is O(block) to write, and O(block) plus the two int8 output
arrays to read.
"""

from __future__ import annotations

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

RECORD_CSV_HEADER = ["index", "a", "b"]
_RECORD_HEADER_LINE = (",".join(RECORD_CSV_HEADER) + "\n").encode("ascii")
_MINUS, _NEWLINE = b"-\n"
# a row's tail after its index as one NUL-padded word, at 2 * (a < 0) + (b < 0)
_RECORD_TAILS = np.frombuffer(b",1,1\n\0\0\0,1,-1\n\0\0,-1,1\n\0\0,-1,-1\n\0", dtype=np.uint64)
# r in 0..999 as the last three bytes of a NUL-padded word: unpadded ("7"), and
# zero-padded ("007") for the low digits of an index of 1000 or more
_DIGITS, _PADDED_DIGITS = (
    np.frombuffer(b"".join(text.encode().rjust(8, b"\0") for text in texts), dtype=np.uint64)
    for texts in ([str(r) for r in range(1000)], ["%03d" % r for r in range(1000)])
)
# rows rendered per written block; 4K-16K rows ran alike, 64K (a 1 MiB matrix) was slower
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


# a "trials" entry to be filled from rows.  The encoder escapes every quote
# inside a string, so the quote after `trials` closes a key, and no string
# value (a config "out" path, say) can hold these bytes
_TRIALS_SLOT = b'"trials": null'


@lru_cache(maxsize=8)
def _trial_template(indent: int, counts: bool) -> str:
    """One trial as ``json.dumps`` lays it out, as a ``%`` template indented by ``indent`` spaces.

    Its fields come in sorted-key order: the count table's m_a_minus,
    m_a_plus, m_b_minus, m_b_plus, joint mm, mp, pm, pp and total (or
    ``null``), the direction's x, y, z, then mi_estimate and trial_index.
    """
    table = dict.fromkeys(("m_a_minus", "m_a_plus", "m_b_minus", "m_b_plus", "total"), "%d")
    table["m_joint"] = dict.fromkeys(("mm", "mp", "pm", "pp"), "%d")
    trial = {"counts": table if counts else None, "direction": ["%r"] * 3, "mi_estimate": "%r", "trial_index": "%d"}
    text = json.dumps(trial, sort_keys=True, indent=2).replace('"%d"', "%d").replace('"%r"', "%r")
    pad = " " * indent
    return pad + text.replace("\n", "\n" + pad)


def _trials_json(rows, indent: int, counts: bool) -> str:
    """The ``trials`` list of nonempty ``(direction, mi_estimate, counts)`` rows, its key at ``indent`` spaces.

    Each row is a ``TransferResult.coarse_rows()`` row of Python floats and
    ints, so ``%r`` and ``%d`` give the encoder's bytes.  With ``counts``
    each trial carries its count table, marginals and total derived from
    the four joint counts (m_pp, m_pm, m_mp, m_mm); without, ``null``.
    """
    template = _trial_template(indent + 2, counts)
    if counts:
        items = [
            template % (mp + mm, pp + pm, pm + mm, pp + mp, mm, mp, pm, pp, pp + pm + mp + mm, x, y, z, s, i)
            for i, ((x, y, z), s, (pp, pm, mp, mm)) in enumerate(rows)
        ]
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
        head, *tails = data.split(_TRIALS_SLOT)
        parts = [head]
        for (rows, counts), tail in zip(trials, tails, strict=True):
            indent = len(parts[-1]) - parts[-1].rindex(b"\n") - 1
            parts += [b'"trials": ', _trials_json(rows, indent, counts).encode("ascii"), tail]
        data = b"".join(parts)
    _write_bytes_atomic(path, [data])


def _record_rows(a: np.ndarray, b: np.ndarray, start: int) -> bytearray:
    """Rows ``start`` .. ``start + a.size - 1`` of the record CSV with outcomes ``a``, ``b``.

    Row i is its decimal index, ``,``, ``1`` or ``-1``, ``,``, ``1`` or
    ``-1`` and LF, byte-identical to ``csv.writer``.  The rows are laid
    out NUL-padded in a matrix of uint64 words: the index right-aligned in
    enough words for the block's largest index, then its tail as one word,
    picked from four by the signs.  The index is i // 1000 as text,
    built once per run of 1000 rows, ORed with the last three digits from
    a table (unpadded below 1000).  Dropping the NULs leaves the rows.
    """
    m = a.size
    stop = start + m
    words = -(-len(str(stop - 1)) // 8)
    runs = range(start // 1000, (stop - 1) // 1000 + 1)
    heads = b"".join((b"%d\0\0\0" % q).rjust(8 * words, b"\0") if q else bytes(8 * words) for q in runs)
    fields = np.frombuffer(heads, dtype=np.uint64).reshape(-1, 1, words).repeat(1000, axis=1)
    fields[..., -1] |= _PADDED_DIGITS
    if runs[0] == 0:
        fields[0, :, -1] = _DIGITS
    text = bytearray(m * 8 * (words + 1))
    rows = np.frombuffer(text, dtype=np.uint64).reshape(m, words + 1)
    rows[:, :words] = fields.reshape(-1, words)[start % 1000 :][:m]
    rows[:, words] = _RECORD_TAILS.take(2 * (a < 0).view(np.int8) + (b < 0).view(np.int8))
    return text.translate(None, b"\0")


def record_to_csv(record: OutcomeRecord, path) -> None:
    a, b = record.a, record.b
    blocks = (
        _record_rows(a[i : i + _WRITE_ROWS], b[i : i + _WRITE_ROWS], i) for i in range(0, a.size, _WRITE_ROWS)
    )
    _write_bytes_atomic(path, itertools.chain([_RECORD_HEADER_LINE], blocks))


def _record_blocks(fh) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, b) if binary file ``fh`` holds exactly what ``record_to_csv`` writes for them, else None.

    A missing final LF is allowed.  The file is read ``_READ_BYTES`` at a
    time and checked in blocks of whole lines.  A block's outcomes are read
    back from each row's LF: b is negative if the byte two before the LF
    is ``-``, and a if the byte just before a's ``1`` is (clipped to the
    block: a line too short for that cannot be written).  The block is
    accepted only if writing those outcomes, from the running row index,
    gives back the same bytes.
    """
    data = fh.read(_READ_BYTES)
    if not data.startswith(_RECORD_HEADER_LINE):
        return None
    data = data[len(_RECORD_HEADER_LINE) :]
    a_parts, b_parts = [], []
    rows = 0
    while data:
        cut = data.rfind(b"\n") + 1
        buf = np.frombuffer(data, dtype=np.uint8, count=cut)
        ends = np.flatnonzero(buf == _NEWLINE)
        neg_b = buf.take(ends - 2, mode="clip") == _MINUS
        ends -= 4
        ends -= neg_b
        neg_a = buf.take(ends, mode="clip") == _MINUS
        a = 1 - 2 * neg_a.view(np.int8)
        b = 1 - 2 * neg_b.view(np.int8)
        if a.size and _record_rows(a, b, rows) != buf.data:  # no rows: the last one's LF is still to come
            return None
        rows += a.size
        a_parts.append(a)
        b_parts.append(b)
        rest = data[cut:]
        if len(rest) >= _READ_BYTES:  # no row of a written file is that long
            return None
        data = rest + (fh.read(_READ_BYTES) or (rest and b"\n"))  # at the end, close a last row with no LF
    if not rows:
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

    Accepts what ``csv.reader`` accepts, with an ``index,a,b`` header and
    rows whose outcomes parse as -1 or +1.  Raises ParseError naming the
    1-based line of the first offending row, or only the file when it is
    not UTF-8.  Files laid out exactly as
    ``record_to_csv`` writes them are parsed in byte blocks
    (``_record_blocks``); any other file is read again from its start by
    the row loop below, which defines the format and gives the error
    messages.  A file that cannot seek (a pipe) is read whole first.
    """
    path = Path(path)
    a_vals: list[int] = []
    b_vals: list[int] = []
    with open(path, "rb", buffering=0) as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        plain = _record_blocks(fh)
        if plain is not None:
            return plain
        fh.seek(0)
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            rows = _csv_rows(csv.reader(text), path)
            header = next(rows, None)
            if header != RECORD_CSV_HEADER:
                raise ParseError(f"{path}: line 1: expected header 'index,a,b', got {header!r}")
            for lineno, row in enumerate(rows, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ParseError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
                try:
                    a = int(row[1])
                    b = int(row[2])
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: outcomes must be integers") from None
                if a not in (-1, 1) or b not in (-1, 1):
                    raise ParseError(f"{path}: line {lineno}: outcomes must be -1 or +1")
                a_vals.append(a)
                b_vals.append(b)
    if not a_vals:
        raise ParseError(f"{path}: no outcome rows")
    return np.array(a_vals, dtype=np.int8), np.array(b_vals, dtype=np.int8)

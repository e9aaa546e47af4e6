"""Image and trace file formats.

Two image formats are supported:

* **PGM** (portable graymap), magics ``P5`` (binary) and ``P2`` (ASCII),
  8-bit or 16-bit samples; 16-bit binary samples are big-endian per the PGM
  convention.  Values are normalized to [0, 1] by the header's max value on
  read and quantized to 16 bits on write, so PGM is lossy and meant for
  viewing.
* a **plain-text float format** (first line ``width height``, then one line
  of decimals per row) whose write -> read round-trip is bit-exact; this is
  the default for anything that feeds back into computation.  The reader
  parses the file's bytes in one C pass (``np.fromstring``), header
  included, so it holds the file and the result array and no Python object
  per sample.  Above ``grid.BLOCK_PIXELS`` samples, on two or more usable
  cores and with no other thread alive, the work is split in two forked
  processes (the formatting and parsing hold the interpreter lock, so
  threads would not help): the writer formats the lower rows in a child,
  into a temporary file it then appends, and the reader cuts the file at the
  first newline after its middle and parses each part in a child, which
  sends its values back through a pipe into the result.  The bytes written,
  the image read and every error message are those of one process; a child
  that fails raises ``OSError``.

Traces are CSV with a stable header and optional leading ``# key=value``
comment lines echoing the resolved configuration.
"""

from __future__ import annotations

import csv
import functools
import os
import re
import shutil
import tempfile
import threading
import typing
import warnings
from pathlib import Path

import numpy as np

from . import grid
from .grid import as_image
from .solvers import TraceRecord

# column name -> type: int, float, or float | None (an empty cell)
_TRACE_TYPES = typing.get_type_hints(TraceRecord)
TRACE_HEADER = list(_TRACE_TYPES)


class FormatError(ValueError):
    """Malformed or truncated image/trace file."""


# ---------------------------------------------------------------------------
# PGM


# Whitespace and '#' comments, then a token: a run of non-whitespace that does
# not start with '#' (so "12#3" is one token).  The lookaheads keep a
# backtracking match from ending a comment or a token early.
_PGM_SKIP = rb"(?:[ \t\r\n]|#[^\n]*(?![^\n]))*"
_PGM_TOKEN = rb"([^ \t\r\n#][^ \t\r\n]*)(?![^ \t\r\n])"
_PGM_HEADER = re.compile(_PGM_TOKEN + (_PGM_SKIP + _PGM_TOKEN) * 3)
# matches wherever it is tried, capturing nothing only at the end of the data,
# so findall takes one token at a time from where the last one ended
_PGM_SAMPLE = re.compile(_PGM_SKIP + rb"(?:" + _PGM_TOKEN + rb"|\Z)")


def _read_pgm(data: bytes) -> np.ndarray:
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FormatError("malformed PGM header")
    magic, *dims = header.groups()
    # bytes.isdigit is ASCII-only; int() alone would take "+5", "-1" and "1_0"
    if not all(map(bytes.isdigit, dims)):
        raise FormatError("malformed PGM header")
    width, height, maxval = map(int, dims)
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FormatError(f"bad PGM dimensions/maxval: {width}x{height}/{maxval}")

    if magic == b"P2":
        tokens = [t for t in _PGM_SAMPLE.findall(data, header.end()) if t]
        if not all(map(bytes.isdigit, tokens)):
            raise FormatError("non-integer sample in ASCII PGM (digits only)")
        raw = np.array([int(t) for t in tokens], dtype=np.float64)
        if raw.size != width * height:
            raise FormatError(f"expected {width * height} samples, found {raw.size}")
    elif magic == b"P5":
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        offset = header.end() + 1  # single whitespace byte after maxval
        if len(data) - offset < width * height * dtype.itemsize:
            raise FormatError("truncated PGM payload")
        raw = np.frombuffer(data, dtype, count=width * height, offset=offset).astype(np.float64)
    else:
        raise FormatError(f"unsupported magic {magic!r} (PGM P5/P2 only)")
    if raw.max(initial=0.0) > maxval:
        raise FormatError("sample exceeds declared max value")
    return (raw / maxval).reshape(height, width)


def _write_pgm(path: Path, u: np.ndarray) -> None:
    clipped = np.clip(u, 0.0, 1.0)
    samples = np.rint(clipped * 65535.0).astype(np.uint16)
    h, w = samples.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(samples.astype(">u2").tobytes())


# ---------------------------------------------------------------------------
# plain-text float format


def _two_halves(samples: int) -> bool:
    """Whether float text of ``samples`` samples is read or written in two
    forked halves (forking with another thread alive could copy a lock it
    holds into the child)."""
    return (
        samples > grid.BLOCK_PIXELS
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and grid._usable_cores() >= 2
    )


def _forked(work):
    """Run ``work()`` in a forked child, which exits as soon as it returns or
    raises; returns a join that waits for the child and raises ``OSError``
    unless ``work`` returned."""
    pid = os.fork()
    if pid == 0:  # the child: never returns to the caller
        code = 1
        try:
            work()
            code = 0
        finally:
            os._exit(code)

    def join():
        status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise OSError(f"float-text worker process {pid} failed (wait status {status})")

    return join


def _join_all(joins) -> None:
    """Call every join, then raise the first ``OSError`` among them."""
    failures = []
    for join in joins:
        try:
            join()
        except OSError as exc:
            failures.append(exc)
    if failures:
        raise failures[0]


def _parse(data: bytes) -> np.ndarray:
    """Every number in ``data`` (whitespace-separated), in one C pass."""
    # A token that is not a number stops the parse: numpy >= 2 raises
    # ValueError, numpy < 2 only warns and returns the values before it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(data, sep=" ")
        except (ValueError, DeprecationWarning) as exc:
            raise FormatError("non-numeric sample in float image") from exc


# np.fromstring reads a string of whitespace alone as [-1.0], so a part to
# be parsed on its own must hold a byte that is not whitespace
_NOT_SPACE = re.compile(rb"[^ \t\n\r\x0b\x0c]")


def _send_samples(data: bytes, start: int, stop: int, skip: int, fd: int) -> None:
    """(In a child.)  Parse ``data[start:stop]`` and write to pipe ``fd`` its
    count of numbers after the first ``skip`` (-1 for a token that is not a
    number) as an int64, then those numbers as raw float64."""
    try:
        vals = _parse(data[start:stop])[skip:]
        count = vals.size
    except FormatError:
        vals, count = np.empty(0), -1
    try:
        for buf in (memoryview(np.int64(count).tobytes()), memoryview(vals).cast("B")):
            while buf:
                buf = buf[os.write(fd, buf) :]
    except BrokenPipeError:
        pass  # the parent has rejected the file and stopped reading


def _receive(fd: int, buf: memoryview) -> None:
    """Fill ``buf`` from pipe ``fd``."""
    while buf:
        n = os.readv(fd, [buf])
        if n == 0:
            raise OSError("a float-text worker process ended early")
        buf = buf[n:]


def _parse_halves(data: bytes, cut: int, samples: int) -> np.ndarray:
    """The ``samples`` samples of float text ``data``, header values left
    out, parsed as ``data[:cut]`` and ``data[cut:]`` in two forked children
    at once; raises the ``FormatError`` that parsing ``data`` whole would."""
    reads, joins = [], []
    try:
        for start, stop, skip in ((0, cut, 2), (cut, len(data), 0)):
            r, w = os.pipe()
            reads.append(r)
            try:
                joins.append(_forked(functools.partial(_send_samples, data, start, stop, skip, w)))
            finally:
                os.close(w)  # before the next fork, so that a pipe ends with its child
        counts = []
        for r in reads:
            head = np.empty(1, np.int64)
            _receive(r, memoryview(head).cast("B"))
            counts.append(int(head[0]))
        if min(counts) < 0:
            raise FormatError("non-numeric sample in float image")
        if sum(counts) != samples:
            raise FormatError(f"expected {samples} samples, found {sum(counts)}")
        out = np.empty(samples)
        view = memoryview(out).cast("B")
        for r, n in zip(reads, counts):
            _receive(r, view[: n * out.itemsize])
            view = view[n * out.itemsize :]
        return out
    finally:
        for r in reads:  # a child still writing then stops
            os.close(r)
        _join_all(joins)


def _read_float_text(data: bytes) -> np.ndarray:
    newline = data.find(b"\n")
    header = data if newline < 0 else data[:newline]
    try:
        w_tok, h_tok = header.split()
        width, height = int(w_tok), int(h_tok)
    except ValueError as exc:
        raise FormatError("malformed float-image header (want 'width height')") from exc
    if width < 1 or height < 1:
        raise FormatError("non-positive float-image dimensions")
    samples = width * height
    # the cut is a newline, which no token spans, so each part holds whole
    # tokens, and the header is in the first
    cut = data.find(b"\n", len(data) // 2) + 1 if _two_halves(samples) else 0
    if cut and _NOT_SPACE.search(data, cut):
        return _parse_halves(data, cut, samples).reshape(height, width)
    # the whole buffer, header included, so the body is never copied
    vals = _parse(data)
    if vals.size - 2 != samples:
        raise FormatError(f"expected {samples} samples, found {vals.size - 2}")
    # the first two values parsed are the header's width and height
    return vals[2:].reshape(height, width)


def _write_rows(fh, rows) -> None:
    for row in rows:
        fh.write(" ".join(repr(x) for x in row.tolist()))
        fh.write("\n")


def _write_lower_rows(fd: int, rows) -> None:
    """(In a child.)  :func:`_write_rows` into the open file ``fd``."""
    with open(fd, "w", closefd=False) as fh:
        _write_rows(fh, rows)


def _write_float_text(path: Path, u: np.ndarray) -> None:
    h, w = u.shape
    half = h // 2 if h >= 2 and _two_halves(u.size) else h
    with open(path, "w") as fh:
        fh.write(f"{w} {h}\n")
        if half == h:
            _write_rows(fh, u)
            return
        # a child formats the lower rows into a temporary file next to the
        # output while this process formats the upper ones
        with tempfile.TemporaryFile(dir=path.parent) as tail:
            join = _forked(functools.partial(_write_lower_rows, tail.fileno(), u[half:]))
            try:
                _write_rows(fh, u[:half])
            finally:
                join()
            fh.flush()
            tail.seek(0)
            shutil.copyfileobj(tail, fh.buffer)


def read_image(path) -> np.ndarray:
    """Read a PGM or float-text image; PGM samples land in [0, 1]."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if data[:2] in (b"P5", b"P2"):
        u = _read_pgm(data)
    elif data.isascii():
        u = _read_float_text(data)
    else:
        raise FormatError(f"{path}: neither PGM nor float text")
    try:
        return as_image(u)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_image(path, u) -> None:
    """Write ``u`` as PGM when the suffix is .pgm, float text otherwise."""
    path = Path(path)
    u = as_image(u)
    if path.suffix.lower() == ".pgm":
        _write_pgm(path, u)
    else:
        _write_float_text(path, u)


# ---------------------------------------------------------------------------
# trace CSV


def _cell(x) -> str:
    return "" if x is None else repr(float(x))


def write_trace(path, trace: list[TraceRecord], header: dict | None = None) -> None:
    """Write trace records as CSV, preceded by '# key=value' comment lines."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for r in trace:
            writer.writerow([r.iter] + [_cell(getattr(r, name)) for name in TRACE_HEADER[1:]])


def _parse_cell(text: str, typ):
    if typ in (int, float):
        return typ(text)
    return None if text == "" else float(text)


def read_trace(path):
    """Read back a trace CSV; returns (records, header_comments).

    A foreign header row, a short row or a cell that is not a number raises
    ``FormatError`` naming the file and the line.
    """
    path = Path(path)
    header: dict[str, str] = {}
    records: list[TraceRecord] = []
    rows: list[str] = []
    linenos: list[int] = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key.strip()] = value
            else:
                rows.append(line)
                linenos.append(lineno)
    reader = csv.reader(rows)
    head = next(reader, None)
    if head != TRACE_HEADER:
        raise FormatError(f"{path}: unexpected trace header: {head}")

    for row in reader:
        where = f"{path}: line {linenos[reader.line_num - 1]}"
        if len(row) != len(TRACE_HEADER):
            raise FormatError(f"{where}: bad trace row: {row}")
        try:
            records.append(TraceRecord(*map(_parse_cell, row, _TRACE_TYPES.values())))
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return records, header

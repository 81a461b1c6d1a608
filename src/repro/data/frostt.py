"""Reader/writer for the FROSTT ``.tns`` text format.

One nonzero per line: N one-based coordinates followed by the value,
whitespace separated.  ``#`` or ``%`` starts a comment.  This is the
format the paper's datasets ship in, so real FROSTT files can be dropped
straight into the benchmark harness.
"""

from __future__ import annotations

import io
import warnings
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..formats.coo import CooTensor

__all__ = ["iter_tns", "read_tns", "write_tns"]

PathLike = Union[str, Path, io.TextIOBase]

#: characters that start a comment, anywhere on a line
_COMMENTS = ("#", "%")


def _parse_line(parts, lineno):
    """Parse one data line: exact int coordinates + float value.

    Coordinates are parsed as integers directly (parsing through float
    would silently corrupt indices beyond 2**53 — FROSTT mode sizes reach
    tens of millions today, but exactness is free).
    """
    coords = []
    for p in parts[:-1]:
        try:
            coords.append(int(p))
        except ValueError:
            try:
                float(p)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-numeric field") from exc
            raise ValueError(
                f"line {lineno}: coordinates must be integers, got {p!r}")
    try:
        value = float(parts[-1])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: non-numeric field") from exc
    return coords, value


def _fields(line: str) -> list:
    """Whitespace-separated fields of ``line`` before any comment."""
    for mark in _COMMENTS:
        line = line.split(mark, 1)[0]
    return line.split()


def _data_width(lines, lineno: int) -> Optional[int]:
    """Field count of the first data line in ``lines``; None when none."""
    for k, line in enumerate(lines, lineno):
        parts = _fields(line)
        if parts:
            if len(parts) < 2:
                raise ValueError(
                    f"line {k}: need at least one index and a value")
            return len(parts)
    return None


def _parse_lines(lines, lineno: int, width: int):
    """One-based coordinates and values of the data lines in ``lines``.

    The fast path is one ``np.loadtxt`` call; on any parse problem the
    per-line parser re-runs, so every error names its line and cause.
    Only ASCII text takes the fast path: NumPy's C tokenizer can crash on
    some non-ASCII code points, and ``.tns`` data is ASCII anyway.
    """
    dtype = [("i", np.int64, (width - 1,)), ("v", np.float64)]
    if all(map(str.isascii, lines)):
        try:
            with warnings.catch_warnings():
                # an all-comment chunk warns; let the line loop answer it
                warnings.simplefilter("error")
                data = np.loadtxt(lines, dtype=dtype, comments=_COMMENTS,
                                  ndmin=1)
            return data["i"], data["v"]
        except (ValueError, OverflowError, Warning):
            pass
    rows = []
    for k, line in enumerate(lines, lineno):
        parts = _fields(line)
        if not parts:
            continue
        if len(parts) != width:
            raise ValueError(
                f"line {k}: expected {width} fields, got {len(parts)}")
        rows.append(_parse_line(parts, k))
    inds = np.asarray([r[0] for r in rows], dtype=np.int64)
    vals = np.asarray([r[1] for r in rows], dtype=np.float64)
    return inds.reshape(len(rows), width - 1), vals


def iter_tns(fh, chunk_lines: Optional[int] = None
             ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(indices, values)`` from the open ``.tns`` text ``fh``.

    One pair per ``chunk_lines`` raw lines (all lines when ``None``); pairs
    without data are skipped.  Indices are zero-based ``(n, N)`` int64,
    values ``(n,)`` float64.  ``#`` and ``%`` start a comment.

    Raises
    ------
    ValueError on ragged rows, non-numeric fields or non-positive indices;
    the message names the offending line.
    """
    width = None
    lineno = 1
    while True:
        lines = list(islice(fh, chunk_lines))
        if not lines:
            return
        if width is None:
            width = _data_width(lines, lineno)
        if width is not None:
            inds, vals = _parse_lines(lines, lineno, width)
            if len(vals):
                if inds.min() < 1:
                    raise ValueError(
                        ".tns coordinates are one-based and must be >= 1")
                yield inds - 1, np.ascontiguousarray(vals)
        lineno += len(lines)


def read_tns(source: PathLike, shape: Optional[Sequence[int]] = None,
             nmodes: Optional[int] = None) -> CooTensor:
    """Parse a ``.tns`` file into a COO tensor.

    Parameters
    ----------
    source : path or open text file.
    shape : optional explicit shape; inferred as ``max index per mode`` when
        omitted.
    nmodes : optional expected mode count, validated against the file.

    Raises
    ------
    ValueError on ragged rows, non-numeric fields, non-positive indices, or a
    mode-count / shape mismatch.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r") as fh:
            chunks = list(iter_tns(fh))
    else:
        chunks = list(iter_tns(source))

    if not chunks:
        if shape is None:
            raise ValueError("empty .tns file and no explicit shape given")
        return CooTensor.empty(shape)

    [(inds, vals)] = chunks
    file_modes = inds.shape[1]
    if nmodes is not None and file_modes != nmodes:
        raise ValueError(f"file has {file_modes} modes, expected {nmodes}")
    if shape is None:
        shape = tuple(int(m) + 1 for m in inds.max(axis=0))
    return CooTensor(shape, inds, vals, sum_duplicates=True)


def write_tns(tensor: CooTensor, dest: PathLike,
              header: Optional[str] = None) -> None:
    """Write a COO tensor in ``.tns`` format (one-based coordinates)."""
    close = False
    if isinstance(dest, (str, Path)):
        fh = open(dest, "w")
        close = True
    else:
        fh = dest
    try:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for coord, value in zip(tensor.indices, tensor.values):
            fields = " ".join(str(int(c) + 1) for c in coord)
            fh.write(f"{fields} {float(value)!r}\n")
    finally:
        if close:
            fh.close()

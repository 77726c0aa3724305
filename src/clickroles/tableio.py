"""Shared file helpers: gzip-transparent text IO, TSV tables, CSV
matrices with ``#`` metadata header lines, and key=value files.

All writers produce byte-deterministic output for identical inputs:
floats are serialized with ``repr`` (shortest round-trip form), rows are
emitted in the order given by the caller, and no timestamps appear in
any data file.
"""

from __future__ import annotations

import gzip
import io
import math
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, UsageError


def open_text(path: str | Path, mode: str = "rt") -> IO[str]:
    """Open a text file, transparently decompressing ``.gz`` paths.

    Reads turn CRLF and lone CR line ends into LF, so a CRLF file yields
    the same lines as its LF twin, plain or gzipped; writes emit LF.
    """
    path = Path(path)
    reading = mode.startswith("r")
    if not reading:
        path.parent.mkdir(parents=True, exist_ok=True)
    elif not path.exists():
        raise DataError(f"input file not found: {path}")
    newline = None if reading else ""
    if path.suffix == ".gz":
        binary = gzip.open(path, mode.replace("t", "") + "b")
        return io.TextIOWrapper(binary, encoding="utf-8", newline=newline)
    return open(path, mode, encoding="utf-8", newline=newline)


def fmt_value(v: object) -> str:
    """Serialize one table cell. Floats use shortest round-trip repr;
    NaN is emitted as the empty string (absent, never a number)."""
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(v)
    if v is None:
        return ""
    return str(v)


def write_tsv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open_text(path, "wt") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(fmt_value(v) for v in row) + "\n")


def read_tsv(path: str | Path, expect_header: Sequence[str] | None = None) -> tuple[list[str], list[list[str]]]:
    """Read a headered TSV table into (header, rows of strings)."""
    lines = list(iter_lines(path))
    if not lines:
        raise DataError(f"empty table: {path}")
    header = lines[0].split("\t")
    if expect_header is not None and list(header) != list(expect_header):
        raise DataError(
            f"unexpected header in {path}: got {header!r}, expected {list(expect_header)!r}"
        )
    rows = [ln.split("\t") for ln in lines[1:] if ln != ""]
    return header, rows


def write_matrix_csv(path: str | Path, matrix: np.ndarray, metadata: dict[str, object]) -> None:
    """Write a 2-D matrix as CSV preceded by ``# key=value`` metadata lines.

    NaN cells are emitted empty (masked values are absent, never numbers).
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise UsageError(f"matrix must be 2-D, got {mat.ndim}-D")
    with open_text(path, "wt") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={value}\n")
        for row in mat:
            fh.write(",".join(fmt_value(float(v)) for v in row) + "\n")


def read_matrix_csv(path: str | Path) -> tuple[np.ndarray, dict[str, str]]:
    """Read a matrix CSV written by :func:`write_matrix_csv`.

    Empty cells come back as NaN.
    """
    metadata: dict[str, str] = {}
    rows: list[list[float]] = []
    for line in iter_lines(path):
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        if not line:
            continue
        rows.append([float(cell) if cell != "" else math.nan for cell in line.split(",")])
    return np.array(rows, dtype=float), metadata


def write_keyvalues(path: str | Path, items: dict[str, object]) -> None:
    with open_text(path, "wt") as fh:
        for key, value in items.items():
            fh.write(f"{key}={fmt_value(value)}\n")


def read_keyvalues(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in iter_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"malformed key=value line in {path}: {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def iter_lines(path: str | Path) -> Iterator[str]:
    """Yield lines (without trailing newline) from a possibly-gzipped file.

    A file that cannot be read to its end (truncated or corrupt gzip,
    invalid UTF-8, an I/O error) raises DataError as ``path:N: reason``,
    where N is the last complete line read (0 if none). Decoding runs in
    blocks of a few KB, so the fault can lie a block past line N.
    """
    lineno = 0
    try:
        with open_text(path, "rt") as fh:
            for lineno, line in enumerate(fh, start=1):
                yield line.rstrip("\n")
    except (EOFError, UnicodeDecodeError, OSError) as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from exc

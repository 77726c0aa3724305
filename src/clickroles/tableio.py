"""Shared file helpers: gzip-transparent text IO, the one row writer and
the one JSON writer, the readers of their tables, and ColumnTable, the
one in-memory form of every per-article table (traffic, metrics,
network, content, topic assignment and joined).

Every output file of a subcommand is written by :func:`write_rows` (TSV
and CSV tables, matrices, key=value files, word lists; optional
``# key=value`` metadata lines first) or :func:`write_json` (models,
manifests, the report index). Output is byte-deterministic for
identical inputs: every cell goes through :func:`fmt_value`, so floats
are serialized with ``repr`` (shortest round-trip form) and NaN as an
empty cell; rows are emitted in the order given by the caller; JSON
keys are sorted; and no timestamps appear in any data file.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import DataError, UsageError

T = TypeVar("T")

# Largest count or per-article sum: up to 2**53 every int64 converts to
# float64 exactly, so column-wise quotients equal the integer ones.
MAX_COUNT = 2**53

# Characters per read of iter_lines: the chunk size of io.TextIOWrapper.
READ_BLOCK = 8192


def parse_count(text: str) -> int:
    """A count cell: ASCII digits only (int() alone would also take "+12",
    "1_000", " 12 " and non-ASCII digits), at most MAX_COUNT; else ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"count {text!r} is not ASCII digits")
    value = int(text)  # ValueError past sys.get_int_max_str_digits() digits
    if value > MAX_COUNT:
        raise ValueError(f"count {value} exceeds 2**53")
    return value


def parse_real(text: str) -> float:
    """A finite float cell; ValueError on NaN, infinities and non-numbers."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value {text!r} is not finite")
    return value


def parse_ratio(name: str, text: str) -> float:
    """A ratio cell named `name`: finite and in [0, 1]; else ValueError."""
    value = parse_real(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} {value!r} outside [0, 1]")
    return value


def open_text(path: str | Path, mode: str = "rt") -> IO[str]:
    """Open a text file, transparently decompressing ``.gz`` paths.

    Reads turn CRLF and lone CR line ends into LF, so a CRLF file yields
    the same lines as its LF twin, plain or gzipped; writes emit LF.
    """
    path = Path(path)
    reading = mode.startswith("r")
    if not reading:
        make_dir(path.parent)
    elif not path.exists():
        raise DataError(f"input file not found: {path}")
    newline = None if reading else ""
    if path.suffix == ".gz":
        binary = gzip.open(path, mode.replace("t", "") + "b")
        return io.TextIOWrapper(binary, encoding="utf-8", newline=newline)
    return open(path, mode, encoding="utf-8", newline=newline)


def make_dir(path: Path) -> None:
    """Create directory `path` and its parents; DataError naming the path
    if that fails (a part of it is a file, no permission)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {path}: {exc.strerror}") from exc


def fmt_value(v: object) -> str:
    """Serialize one table cell. Floats use shortest round-trip repr;
    NaN is emitted as the empty string (absent, never a number)."""
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(v)
    if v is None:
        return ""
    return str(v)


def write_rows(
    path: str | Path,
    rows: Iterable[Iterable[object]],
    header: Sequence[str] | None = None,
    metadata: Mapping[str, object] | None = None,
    sep: str = "\t",
) -> None:
    """Write one ``# key=value`` line per `metadata` entry, then the
    `header` line, then one line per row: its :func:`fmt_value` cells
    joined by `sep`. Rows are consumed one at a time, so a generator
    keeps only one row in memory."""
    with open_text(path, "wt") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={fmt_value(value)}\n")
        if header is not None:
            fh.write(sep.join(header) + "\n")
        for row in rows:
            fh.write(sep.join(map(fmt_value, row)) + "\n")


def write_json(path: str | Path, doc: object) -> None:
    """Write `doc` as JSON: one-space indent, sorted keys, final newline."""
    with open_text(path, "wt") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_table(path: str | Path, header: Sequence[str], parse_row: Callable[[list[str]], T]) -> list[T]:
    """``parse_row(cells)`` of each non-empty data line of a headered TSV
    table whose first cell is a unique article title.

    A row with the wrong number of cells, a repeated title and a row that
    parse_row rejects (ValueError from a bad number or label, or
    DataError) raise DataError as ``path:N: reason``.
    """
    lines = iter_lines(path)
    first = next(lines, None)
    if first is None:
        raise DataError(f"empty table: {path}")
    got = first.split("\t")
    if got != list(header):
        raise DataError(f"unexpected header in {path}: got {got!r}, expected {list(header)!r}")
    out: list[T] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise DataError(
                f"{where(path, lineno)}: expected {len(header)} tab-separated cells, got {len(cells)}"
            )
        if cells[0] in seen:
            raise DataError(f"{where(path, lineno)}: duplicate article {cells[0]!r}")
        seen.add(cells[0])
        try:
            out.append(parse_row(cells))
        except (ValueError, DataError) as exc:
            raise DataError(f"{where(path, lineno)}: {exc}") from exc
    return out


@dataclass(frozen=True, eq=False)
class ColumnTable:
    """Per-article table: the titles, ascending and unique, and one
    row-aligned numpy column per field, in field order."""

    articles: tuple[str, ...]
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.articles)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, rows: np.ndarray) -> ColumnTable:
        """The rows at ascending indices `rows`, so titles stay sorted."""
        return ColumnTable(
            tuple(self.articles[i] for i in rows.tolist()),
            {name: column[rows] for name, column in self.columns.items()},
        )


def column_table(rows: Iterable[tuple], dtypes: Mapping[str, object]) -> ColumnTable:
    """The ColumnTable of (title, *cells) rows with unique titles, in any
    order: sorted by title, one column per `dtypes` entry, which names
    the column and gives its numpy dtype."""
    rows = sorted(rows, key=itemgetter(0))
    articles, *cells = zip(*rows) if rows else [()] * (1 + len(dtypes))
    return ColumnTable(
        articles,
        {name: np.array(column, dtype=dtype) for (name, dtype), column in zip(dtypes.items(), cells)},
    )


def read_columns(
    path: str | Path,
    header: Sequence[str],
    parse_row: Callable[[list[str]], tuple],
    dtypes: Mapping[str, object],
) -> ColumnTable:
    """:func:`read_table` as a :func:`column_table`: parse_row returns
    (title, *cells), one cell per `dtypes` entry."""
    return column_table(read_table(path, header, parse_row), dtypes)


def write_columns(
    path: str | Path, header: Sequence[str], table: ColumnTable, **formats: Callable[[object], object]
) -> None:
    """Write `table` as a TSV table: the title, then the columns named by
    header[1:], one row per article in table order. `formats` maps a
    column name to a function of each of its values giving the cell
    written for it (by default the value itself)."""
    cells = []
    for name in header[1:]:
        values = table[name].tolist()
        cells.append(list(map(formats[name], values)) if name in formats else values)
    write_rows(path, zip(table.articles, *cells), header)


def write_matrix_csv(path: str | Path, matrix: np.ndarray, metadata: dict[str, object]) -> None:
    """Write a 2-D matrix as CSV preceded by ``# key=value`` metadata lines.

    NaN cells are emitted empty (masked values are absent, never numbers).
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise UsageError(f"matrix must be 2-D, got {mat.ndim}-D")
    write_rows(path, (row.tolist() for row in mat), metadata=metadata, sep=",")


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


def write_keyvalues(path: str | Path, items: Mapping[str, object]) -> None:
    write_rows(path, items.items(), sep="=")


def read_keyvalues(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(iter_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{where(path, lineno)}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def where(source: str | Path | None, lineno: int) -> str:
    """Location for an error message: ``path:N`` in a file, ``line N``
    in lines from nowhere in particular."""
    return f"line {lineno}" if source is None else f"{source}:{lineno}"


def iter_lines(path: str | Path) -> Iterator[str]:
    """Yield lines (without trailing newline) from a possibly-gzipped file.

    The text is read and split in blocks of READ_BLOCK characters, so no
    per-line call is made. A file that cannot be read to its end
    (truncated or corrupt gzip, invalid UTF-8, an I/O error) raises
    DataError as ``path:N: reason``, where N is the last complete line
    read (0 if none); the fault can lie a block past line N.
    """
    lineno = 0
    try:
        with open_text(path, "rt") as fh:
            head: list[str] = []  # the pieces of a line not ended yet
            while block := fh.read(READ_BLOCK):
                lines = block.split("\n")
                if len(lines) > 1:
                    head.append(lines[0])
                    lines[0] = "".join(head)
                    head = []
                head.append(lines.pop())
                yield from lines
                lineno += len(lines)
            if last := "".join(head):
                yield last
    except (EOFError, UnicodeDecodeError, OSError) as exc:
        raise DataError(f"{where(path, lineno)}: {exc}") from exc

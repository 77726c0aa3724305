"""Shared file helpers: gzip-transparent text IO, the one row writer and
the one JSON writer, the readers of their tables, and ColumnTable, the
one in-memory form of every per-article table (traffic, metrics,
network, content, topic assignment and joined).

Every output file of a subcommand is written by :func:`write_rows` (TSV
and CSV tables, matrices, key=value files, word lists; optional
``# key=value`` metadata lines first) or :func:`write_json` (models,
manifests, the report index). Output is byte-deterministic for
identical inputs: every cell is written as :func:`fmt_value` gives it,
so floats are serialized with ``repr`` (shortest round-trip form) and
NaN as an empty cell; rows are emitted in the order given by the
caller; JSON keys are sorted; and no timestamps appear in any data file.

Every per-article table is declared once, as a Schema mapping each
column after ``article`` to its CellKind (counts, reals, ratios, labels,
optional cells), and that one declaration drives its reader
:func:`read_columns` and its writer :func:`write_columns`. Every table
is put in title order by :meth:`ColumnTable.in_title_order`, the one
place rows are sorted by title. The reader takes ROW_BLOCK lines at a
time: a block is split in one go and each column converted at once by
its kind, whose scalar parser (:func:`parse_count`, :func:`parse_real`,
:func:`parse_ratio`, a label's index) is the one definition of the cell
rule and its message. A block that fails any check, or a title that
repeats, sends the file to one rescan that reads it again row by row
from its first data line, so the DataError names its first bad row in
file order, with the reason the scalar rules give for that row. The
writer writes each column as its kind's text gives it: the cells
:func:`fmt_value` would write, a label as its name and a missing value
as an empty cell.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from operator import lt
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError

# Largest count or per-article sum: up to 2**53 every int64 converts to
# float64 exactly, so column-wise quotients equal the integer ones.
MAX_COUNT = 2**53

# Digits of MAX_COUNT: a longer count cell is read by parse_count alone.
COUNT_DIGITS = len(str(MAX_COUNT))

# Finds a character that float() takes but a real cell may not hold, by
# the count rule: one outside printable ASCII (non-ASCII digits, and the
# whitespace float() strips from the ends) or "_".
_NOT_REAL = re.compile(r"[^!-~]|_").search

# Characters per read of iter_lines: the chunk size of io.TextIOWrapper.
READ_BLOCK = 8192

# Rows per block of read_columns and write_columns: bounds the cells alive at once.
ROW_BLOCK = 1024


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
    """A finite float cell of printable ASCII without "_" (float() alone
    would also take "1_0", " 2.5 " and non-ASCII digits); ValueError on
    those, NaN, infinities and non-numbers."""
    if _NOT_REAL(text):
        raise ValueError(f"value {text!r} is not a plain ASCII number")
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
        raise DataError(f"{path}: input file not found")
    newline = None if reading else ""
    if path.suffix == ".gz":
        binary = gzip.open(path, mode.replace("t", "") + "b")
        return io.TextIOWrapper(binary, encoding="utf-8", newline=newline)
    return open(path, mode, encoding="utf-8", newline=newline)


def make_dir(path: Path) -> None:
    """Create directory `path` and its parents; DataError naming the path
    if that fails (a part of it is a file, no permission)."""
    with oserror_as_data(f"cannot create output directory {path}"):
        path.mkdir(parents=True, exist_ok=True)


@contextmanager
def oserror_as_data(what: str) -> Iterator[None]:
    """Turn an OSError in the block (a full disk, no permission) into
    DataError ``what: reason``."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{what}: {exc.strerror or exc}") from exc


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
    keeps only one row in memory. A failed write is DataError naming `path`."""
    with oserror_as_data(f"cannot write {path}"), open_text(path, "wt") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={fmt_value(value)}\n")
        if header is not None:
            fh.write(sep.join(header) + "\n")
        for row in rows:
            fh.write(sep.join(map(fmt_value, row)) + "\n")


def write_json(path: str | Path, doc: object) -> None:
    """Write `doc` as JSON: one-space indent, sorted keys, final newline.
    A failed write is DataError naming `path`."""
    with oserror_as_data(f"cannot write {path}"), open_text(path, "wt") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


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

    @classmethod
    def in_title_order(cls, articles: Sequence[str], columns: dict[str, np.ndarray]) -> ColumnTable:
        """The table of the distinct titles `articles` and their row-aligned
        `columns`: as given if the titles ascend, else sorted by title."""
        articles = tuple(articles)
        if _ascending(articles):
            return cls(articles, columns)
        order = sorted(range(len(articles)), key=articles.__getitem__)
        rows = np.array(order, dtype=np.intp)
        return cls(tuple(map(articles.__getitem__, order)), {name: values[rows] for name, values in columns.items()})

    def take(self, rows: np.ndarray) -> ColumnTable:
        """The rows at ascending indices `rows`, so titles stay sorted."""
        return ColumnTable(
            tuple(self.articles[i] for i in rows.tolist()),
            {name: column[rows] for name, column in self.columns.items()},
        )


@dataclass(frozen=True)
class CellKind:
    """The rule of one column's cells, two ways, and their text. `parse`
    reads one cell, giving its value or raising ValueError with the
    reason: it is the rule's one definition. `convert` reads a whole
    column at C speed, giving its values as a `dtype` array, or None if
    some cell may break the rule; the column then goes through `parse` a
    cell at a time. `text` maps a `dtype` column to the cells written for
    it, each of which `parse` reads back as its value."""

    parse: Callable[[str], object]
    convert: Callable[[list[str]], np.ndarray | None]
    dtype: object
    text: Callable[[np.ndarray], list[str]]


# A table's declaration: its columns after "article", in file order,
# each with the kind of its cells.
Schema = Mapping[str, CellKind]


def _counts(cells: list[str]) -> np.ndarray | None:
    # Every cell ASCII digits, none empty or longer than MAX_COUNT: then
    # numpy's integer text parse, twice as fast as int() per cell, reads
    # each as parse_count does, and no value overflows int64.
    joined = "".join(cells)
    if not (joined.isascii() and joined.isdigit()) or "" in cells or max(map(len, cells)) > COUNT_DIGITS:
        return None
    values = np.fromstring(" ".join(cells), np.int64, sep=" ")
    return values if (values <= MAX_COUNT).all() else None


def _reals(cells: list[str]) -> np.ndarray | None:
    if _NOT_REAL("".join(cells)):
        return None
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _reals_text(column: np.ndarray) -> list[str]:
    # shortest round-trip repr; NaN an empty cell, as fmt_value writes it
    text = list(map(float.__repr__, column.tolist()))
    for row in np.flatnonzero(np.isnan(column)).tolist():
        text[row] = ""
    return text


COUNT = CellKind(parse_count, _counts, np.int64, lambda column: list(map(str, column.tolist())))
REAL = CellKind(parse_real, _reals, np.float64, _reals_text)


def ratio(name: str) -> CellKind:
    """The kind of the ratio column `name` (see parse_ratio)."""

    def convert(cells: list[str]) -> np.ndarray | None:
        values = _reals(cells)
        return values if values is not None and ((values >= 0.0) & (values <= 1.0)).all() else None

    return CellKind(lambda cell: parse_ratio(name, cell), convert, np.float64, _reals_text)


def labels(column: str, names: Sequence[str]) -> CellKind:
    """The kind of the label column `column`: a cell is one of `names`,
    and its code is its index there; any other cell is ValueError
    ``column 'cell' is not one of name, name, ...``."""
    codes = {name: code for code, name in enumerate(names)}

    def parse(cell: str) -> int:
        try:
            return codes[cell]
        except KeyError:
            raise ValueError(f"{column} {cell!r} is not one of {', '.join(names)}") from None

    def convert(cells: list[str]) -> np.ndarray | None:
        try:
            return np.fromiter(map(codes.__getitem__, cells), np.int8, len(cells))
        except KeyError:
            return None

    return CellKind(parse, convert, np.int8, lambda values: list(map(names.__getitem__, values.tolist())))


def optional(kind: CellKind, missing: object) -> CellKind:
    """`kind`, with `missing` as the value of an empty cell, and an empty
    cell written for it."""

    def convert(cells: list[str]) -> np.ndarray | None:
        present = np.fromiter(map(bool, cells), bool, len(cells))
        values = np.full(len(cells), missing, kind.dtype)
        if present.any():
            given = kind.convert(list(filter(None, cells)))
            if given is None:
                return None
            values[present] = given
        return values

    def text(column: np.ndarray) -> list[str]:
        cells = kind.text(column)
        for row in np.flatnonzero(column == missing).tolist():
            cells[row] = ""
        return cells

    return CellKind(lambda cell: kind.parse(cell) if cell else missing, convert, kind.dtype, text)


# A row rule: (bad, reason). bad maps the columns of some rows, by name,
# to the mask of the rows that break the rule; reason(title) says why.
RowRule = tuple[Callable[[Mapping[str, np.ndarray]], np.ndarray], Callable[[str], str]]


def read_columns(path: str | Path, schema: Schema, *rules: RowRule) -> ColumnTable:
    """The ColumnTable of a headered TSV table of `schema`: the header is
    ``article`` and the schema's column names, the first column holds
    unique, non-empty article titles, every other column cells of its
    kind, and every row keeps every rule.

    Data lines are read ROW_BLOCK at a time, empty lines skipped, and a
    block is split in one go and converted a column at a time (see
    CellKind); the table is then put in title order. A block that fails
    a check, or titles that repeat, send the file to _first_bad_row,
    whose DataError names the first bad row in file order.
    """
    header = ["article", *schema]
    lines = iter_lines(path)
    first = next(lines, None)
    if first is None:
        raise DataError(f"{path}: empty table")
    got = first.split("\t")
    if got != header:
        raise DataError(f"{path}: unexpected header: got {got!r}, expected {header!r}")
    rows = filter(None, lines)
    titles: list[str] = []
    parts = {name: [np.empty(0, kind.dtype)] for name, kind in schema.items()}
    while block := list(islice(rows, ROW_BLOCK)):
        try:
            new, columns = _convert_block(block, schema, rules)
        except ValueError:
            raise _first_bad_row(path, schema, rules) from None
        titles += new
        for name, values in columns.items():
            parts[name].append(values)
    articles = tuple(titles)
    table = ColumnTable.in_title_order(articles, {name: np.concatenate(part) for name, part in parts.items()})
    # titles given back as they are ascend strictly; sorted ones that do not hold a repeat
    if table.articles is not articles and not _ascending(table.articles):
        raise _first_bad_row(path, schema, rules)
    return table


def _ascending(titles: Sequence[str]) -> bool:
    return all(map(lt, titles, islice(titles, 1, None)))


def _convert_block(rows: list[str], schema: Schema, rules: Sequence[RowRule]) -> tuple[list[str], dict[str, np.ndarray]]:
    """The titles and the columns, by name, of the non-empty lines `rows`.
    A row that breaks a check raises ValueError; for one row, its message
    is the reason: a wrong number of cells, else an empty title, else the
    first cell its kind's parse rejects, else the first rule broken."""
    width = 1 + len(schema)
    if (tabs := set(map(str.count, rows, repeat("\t")))) != {width - 1}:
        raise ValueError(f"expected {width} tab-separated cells, got {min(tabs - {width - 1}) + 1}")
    cells = "\t".join(rows).split("\t")
    titles = cells[::width]
    if "" in titles:
        raise ValueError("empty article title")
    columns = {}
    for i, (name, kind) in enumerate(schema.items(), start=1):
        column = cells[i::width]
        values = kind.convert(column)
        columns[name] = np.array(list(map(kind.parse, column)), kind.dtype) if values is None else values
    for bad, reason in rules:
        if (broken := bad(columns)).any():
            raise ValueError(reason(titles[broken.argmax()]))
    return titles, columns


def _first_bad_row(path: str | Path, schema: Schema, rules: Sequence[RowRule]) -> DataError:
    """The DataError ``path:N: reason`` of the first bad row of the table
    at `path` in file order: each data line, from line 2, is converted
    alone, after the check for a title an earlier row holds."""
    lines = iter_lines(path)
    next(lines)  # the header, which read_columns has checked
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        title = line.split("\t", 1)[0]
        try:
            if line.count("\t") == len(schema) and title in seen:
                raise ValueError(f"duplicate article {title!r}")
            _convert_block([line], schema, rules)
        except ValueError as exc:
            return DataError(f"{path}:{lineno}: {exc}")
        seen.add(title)
    raise AssertionError(f"{path}: the table was rejected, but none of its rows is bad")


def write_columns(path: str | Path, schema: Schema, table: ColumnTable) -> None:
    """Write `table` as a TSV table of `schema`: the header, then one row
    per article in table order, the title and then each schema column's
    cells as its kind's text gives them. The rows are turned into text
    ROW_BLOCK at a time, a column at once."""

    def blocks() -> Iterator[tuple[str]]:
        for start in range(0, len(table), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            cells = [kind.text(table[name][rows]) for name, kind in schema.items()]
            # one "row" of one cell per block: its lines, which write_rows writes as they are
            yield ("\n".join(map("\t".join, zip(table.articles[rows], *cells))),)

    write_rows(path, blocks(), ("article", *schema))


def write_matrix_csv(path: str | Path, matrix: np.ndarray, metadata: dict[str, object]) -> None:
    """Write a 2-D matrix as CSV preceded by ``# key=value`` metadata lines.

    NaN cells are emitted empty (masked values are absent, never numbers).
    """
    mat = np.asarray(matrix, dtype=float)
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


def read_keyvalues(path: str | Path, key: Callable[[str], object] = str) -> dict:
    """The key=value lines of `path`, each key read by `key`; a line
    without ``=``, a key that `key` rejects with ValueError, a key read
    before, or a value holding a tab (a cell of a written table) is
    DataError ``path:N: reason``."""
    out: dict = {}
    for lineno, line in enumerate(iter_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        name, _, value = line.partition("=")
        try:
            name = key(name.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if name in out:
            raise DataError(f"{path}:{lineno}: duplicate key {name!r}")
        if "\t" in (value := value.strip()):
            raise DataError(f"{path}:{lineno}: value {value!r} holds a tab")
        out[name] = value
    return out


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
        raise DataError(f"{path}:{lineno}: {exc}") from exc

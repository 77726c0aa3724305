"""Block-wise line reading against the file object's own line iteration,
the ratio cell rule, the exact bytes of the two output writers, the
column kinds (their column conversion and their cell text against their
scalar cell parsers), every table schema's write-then-read round trip,
and the block-wise table reader: its line numbers across block
boundaries and its peak memory."""

import gzip
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles import tableio
from clickroles.errors import DataError
from clickroles.features import CONTENT, JOINED
from clickroles.ingest import TRAFFIC, read_traffic_table, write_traffic_table
from clickroles.linkgraph import NETWORK
from clickroles.metrics import METRICS, ROLES
from clickroles.tableio import iter_lines
from clickroles.topics import TOPIC_ASSIGNMENT
from test_linkgraph import traced_peak

# "\u2028" and "\x85" end lines for str.splitlines but not for files
pieces = st.sampled_from(["a", "b", "\t", "é", "\u2028", "\x85", "\n", "\r", "\r\n"])
texts = st.lists(pieces, max_size=60).map("".join)


class TestIterLines:
    @given(text=texts, block=st.integers(min_value=1, max_value=9), gz=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_line_iteration(self, tmp_path_factory, text, block, gz):
        path = tmp_path_factory.mktemp("lines") / ("in.txt.gz" if gz else "in.txt")
        data = text.encode("utf-8")
        path.write_bytes(gzip.compress(data) if gz else data)
        expected = [line.rstrip("\n") for line in io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")]
        with mock.patch.object(tableio, "READ_BLOCK", block):
            assert list(iter_lines(path)) == expected

    def test_line_longer_than_many_blocks(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("x" * 100_000 + "\nshort\n" + "y" * 20_000)
        assert list(iter_lines(path)) == ["x" * 100_000, "short", "y" * 20_000]


class TestParseRatio:
    def test_bounds_inclusive(self):
        assert [tableio.parse_ratio("r", t) for t in ("0", "0.0", "-0.0", "0.25", "1", "1.0")] == [
            0.0, 0.0, -0.0, 0.25, 1.0, 1.0]

    def test_rejects_outside_and_non_finite(self):
        for text in ("1.5", "-0.1", "1.0000000000000002", "nan", "inf", "-inf", "x", ""):
            with pytest.raises(ValueError):
                tableio.parse_ratio("searchshare", text)

    def test_message_names_column(self):
        with pytest.raises(ValueError, match=r"^searchshare 1\.5 outside \[0, 1\]$"):
            tableio.parse_ratio("searchshare", "1.5")


# a float's text with a character that float() takes but the count rule
# refuses: "_" between digits, whitespace at an end, a non-ASCII digit
UNPLAIN = st.one_of(
    st.sampled_from(["1_0", "2_5.0", "1e1_0", " 2.5 ", "2.5\x0b", "\x1c1", "\u20032", "\u0661\u0662",
                     "\uff11.5", "\u0665e1"]),
    st.tuples(st.integers(1, 99), st.integers(0, 99)).map(lambda t: f"{t[0]}_{t[1]}"),
    st.tuples(st.sampled_from([" ", "  ", "\t", "\x0c", "\x1f", "\xa0"]), st.floats(allow_nan=False).map(repr),
              st.booleans()).map(lambda t: t[1] + t[0] if t[2] else t[0] + t[1]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    .map(lambda text: text.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                   "\u0665\u0666\u0667\u0668\u0669")))
    .filter(lambda text: not text.isascii()),
)
PLAIN_REALS = st.floats(allow_nan=False, allow_infinity=False).map(repr)


class TestParseReal:
    @pytest.mark.parametrize("text", ["1_0", " 2.5 ", "2.5\n", "\u0661\u0662", "\uff12.5"],
                             ids=["underscore", "padded", "newline", "arabic-indic", "fullwidth"])
    def test_rejects_what_the_count_rule_rejects(self, text):
        with pytest.raises(ValueError, match=f"^value {re.escape(repr(text))} is not a plain ASCII number$"):
            tableio.parse_real(text)
        assert tableio.REAL.convert(["0.5", text]) is None

    @given(cells=st.lists(st.one_of(PLAIN_REALS, UNPLAIN, st.sampled_from(["nan", "inf", "1e400", "x", ""])),
                          min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_block_path_agrees_with_parse_real(self, cells):
        """The block path converts a column exactly when parse_real takes
        every cell, to the same values, and neither takes a cell with a
        non-ASCII character, "_" or whitespace."""
        values, fault = scalar_column(tableio.REAL, cells)
        converted = tableio.REAL.convert(cells)
        assert (converted is None) == (fault is not None)
        if converted is not None:
            assert same(converted.tolist(), values)
        if not all(cell.isascii() and "_" not in cell and cell == "".join(cell.split()) for cell in cells):
            assert fault is not None


class TestLabels:
    def test_bad_cell_names_column_and_names(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("article\tsearchshare\tresistance\ttotal_views\tquadrant\nA\t0.5\t0.5\t3\tsearch-exi\n")
        with pytest.raises(DataError) as exc:
            tableio.read_columns(path, METRICS)
        assert str(exc.value) == (f"{path}:2: quadrant 'search-exi' is not one of "
                                  "search-exit, search-relay, nav-relay, nav-exit")


class TestWriters:
    @pytest.mark.parametrize("write, expected", [
        pytest.param(lambda p: tableio.write_rows(p, [(1, 0.1, "x")], ("a", "b", "c"), {"k": 2, "ratio": 0.5}),
                     b"# k=2\n# ratio=0.5\na\tb\tc\n1\t0.1\tx\n", id="metadata-header"),
        pytest.param(lambda p: tableio.write_rows(p, [(0, "w v"), (1, "u")]), b"0\tw v\n1\tu\n", id="no-header"),
        pytest.param(lambda p: tableio.write_rows(p, [(math.nan, None, 1e-20)], ("x", "y", "z")),
                     b"x\ty\tz\n\t\t1e-20\n", id="nan-empty"),
        pytest.param(lambda p: tableio.write_rows(p, iter([(2, 1.5)]), ("k", "v"), {"m": "s"}, sep=","),
                     b"# m=s\nk,v\n2,1.5\n", id="comma"),
        pytest.param(lambda p: tableio.write_keyvalues(p, {"pearson": -0.25, "n": 3}),
                     b"pearson=-0.25\nn=3\n", id="equals"),
        pytest.param(lambda p: tableio.write_matrix_csv(p, np.array([[1, 0], [2, 3]]), {"rows": "r"}),
                     b"# rows=r\n1.0,0.0\n2.0,3.0\n", id="int-matrix"),
        pytest.param(lambda p: tableio.write_rows(p, [], ("only",)), b"only\n", id="no-rows"),
        pytest.param(lambda p: tableio.write_json(p, {"b": [1, 2.5], "a": {"y": None, "x": "\u00e9"}}),
                     b'{\n "a": {\n  "x": "\\u00e9",\n  "y": null\n },\n "b": [\n  1,\n  2.5\n ]\n}\n',
                     id="json"),
    ])
    @pytest.mark.parametrize("suffix", [".txt", ".gz"])
    def test_exact_bytes(self, tmp_path, write, expected, suffix):
        path = tmp_path / "sub" / f"out{suffix}"
        write(path)
        data = path.read_bytes()
        assert (gzip.decompress(data) if suffix == ".gz" else data) == expected

    def test_uncreatable_directory_is_data_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(DataError, match=f"^cannot create output directory {re.escape(str(blocker))}: "):
            tableio.write_rows(blocker / "t.tsv", [(1,)])


def scalar_column(kind, cells):
    """(values, None), or (None, (row, reason)) for the first cell that
    kind.parse rejects: the cell-by-cell rule that read_columns must keep."""
    values = []
    for row, cell in enumerate(cells):
        try:
            values.append(kind.parse(cell))
        except ValueError as exc:
            return None, (row, str(exc))
    return values, None


KINDS = {
    "count": tableio.COUNT,
    "real": tableio.REAL,
    "ratio": tableio.ratio("weight"),
    "quadrant": tableio.labels("quadrant", ROLES),
    "optional count": tableio.optional(tableio.COUNT, -1),
}
SPECIAL_CELLS = ["1_000", " 5 ", "+1", "٣", "", "nan", "-inf", "1e400", "-0.0", str(2**53), str(2**53 + 1),
                 "1" * 4301, "0" * 4300 + "1", "0" * 30 + "7", "0", "1", "0.5", "search-exit", "nav-relay", "Nav-relay", "x"]
cells = st.one_of(
    st.sampled_from(SPECIAL_CELLS),
    st.integers(0, 2**54).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.sampled_from("0123456789+-._e n٣²"), max_size=6),
)


# cells each kind takes, so whole columns of them are drawn too
GOOD_CELLS = {
    "count": st.integers(0, 2**53).map(str),
    "real": st.floats(allow_nan=False, allow_infinity=False).map(repr),
    "ratio": st.floats(0, 1).map(repr),
    "quadrant": st.sampled_from(ROLES),
    "optional count": st.one_of(st.just(""), st.integers(0, 2**53).map(str)),
}


def same(a, b):
    """Equal values, telling -0.0 from 0.0."""
    return list(map(repr, a)) == list(map(repr, b))


def draw_column(data, name):
    return data.draw(st.one_of(st.lists(cells, min_size=1, max_size=12),
                               st.lists(GOOD_CELLS[name], min_size=1, max_size=12)))


class TestColumnKinds:
    """Each kind's column conversion takes exactly what its scalar parse
    takes, with the same values, and read_columns reports the first bad
    cell with that parse's own message."""

    @pytest.mark.parametrize("name", sorted(KINDS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_convert_agrees_with_parse(self, name, data):
        kind = KINDS[name]
        column = draw_column(data, name)
        values, fault = scalar_column(kind, column)
        converted = kind.convert(column)
        if converted is not None:
            assert fault is None and converted.dtype == kind.dtype and same(converted.tolist(), values)

    @pytest.mark.parametrize("name, column", [
        ("count", ["0", "12", str(2**53)]),
        ("real", ["-0.0", "1e308", "0.1"]),
        ("ratio", ["0", "-0.0", "1.0"]),
        ("quadrant", list(ROLES)),
        ("optional count", ["", "3", ""]),
    ])
    def test_plain_columns_convert_at_once(self, name, column):
        assert same(KINDS[name].convert(column).tolist(), scalar_column(KINDS[name], column)[0])

    @pytest.mark.parametrize("name", sorted(KINDS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_reader_reports_first_bad_cell(self, tmp_path_factory, name, data):
        kind = KINDS[name]
        column = draw_column(data, name)
        path = tmp_path_factory.mktemp("kinds") / "table.tsv"
        path.write_text("article\tv\n" + "".join(f"A{i:02d}\t{cell}\n" for i, cell in enumerate(column)))
        values, fault = scalar_column(kind, column)
        with mock.patch.object(tableio, "ROW_BLOCK", 5):
            if fault is None:
                assert same(tableio.read_columns(path, {"v": kind})["v"].tolist(), values)
            else:
                with pytest.raises(DataError) as exc:
                    tableio.read_columns(path, {"v": kind})
                assert str(exc.value) == f"{path}:{fault[0] + 2}: {fault[1]}"


# values of each kind, whose text the kind must read back
COUNTS = st.one_of(st.sampled_from([0, 1, 2**53 - 1, 2**53]), st.integers(0, 2**53))
REALS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]), st.floats(allow_nan=False, allow_infinity=False))
RATIOS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0, 1))
QUADRANT_CODES = st.sampled_from(range(len(ROLES)))
TOPIC_IDS = st.one_of(st.just(-1), COUNTS)  # -1: no topic, written as an empty cell
VALUES = {"count": COUNTS, "real": REALS, "ratio": RATIOS, "quadrant": QUADRANT_CODES, "optional count": TOPIC_IDS}


class TestCellText:
    """Each kind's text writes the cells fmt_value writes for its values,
    a label as its name and a missing value as an empty cell, and its
    parse reads each of them back as the value written."""

    @pytest.mark.parametrize("name", sorted(KINDS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_parse_reads_text_back(self, name, data):
        kind = KINDS[name]
        column = np.array(data.draw(st.lists(VALUES[name], max_size=12)), kind.dtype)
        cells = kind.text(column)
        assert len(cells) == len(column)
        assert same(list(map(kind.parse, cells)), column.tolist())
        if len(cells):  # and the column conversion takes the written cells at once
            assert same(kind.convert(cells).tolist(), column.tolist())

    @pytest.mark.parametrize("name, values, cells", [
        ("count", [0, 7, 2**53], ["0", "7", str(2**53)]),
        ("real", [-0.0, 0.1, 1e-20, math.nan], ["-0.0", "0.1", "1e-20", ""]),
        ("ratio", [0.0, -0.0, 1.0, math.nan], ["0.0", "-0.0", "1.0", ""]),
        ("quadrant", [0, 1, 2, 3], list(ROLES)),
        ("optional count", [-1, 0, 3, -1, 2**53], ["", "0", "3", "", str(2**53)]),
    ])
    def test_exact_cells(self, name, values, cells):
        kind = KINDS[name]
        assert kind.text(np.array(values, kind.dtype)) == cells
        if name in ("count", "real", "ratio"):
            assert cells == list(map(tableio.fmt_value, values))


SCHEMAS = {
    "traffic": TRAFFIC,
    "metrics": METRICS,
    "network": NETWORK,
    "content": CONTENT,
    "topic assignment": TOPIC_ASSIGNMENT,
    "joined": JOINED,
}
# titles: any text but a tab or a line end
TITLES = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), min_size=1, max_size=6)


def column_values(name, kind):
    """The values of the schema column `name` of `kind`."""
    if name in ("searchshare", "resistance", "weight"):
        return RATIOS
    if name == "quadrant":
        return QUADRANT_CODES
    if kind not in (tableio.COUNT, tableio.REAL):
        return TOPIC_IDS  # the joined table's optional topic_id
    return COUNTS if kind is tableio.COUNT else REALS


class TestSchemas:
    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_read_after_write(self, tmp_path_factory, name, data):
        """read_columns gives back the titles, columns and dtypes that
        write_columns wrote, across block boundaries."""
        schema = SCHEMAS[name]
        titles = sorted(data.draw(st.sets(TITLES, max_size=8)))
        n = len(titles)
        table = tableio.ColumnTable(tuple(titles), {
            column: np.array(data.draw(st.lists(column_values(column, kind), min_size=n, max_size=n)), kind.dtype)
            for column, kind in schema.items()
        })
        path = tmp_path_factory.mktemp("schemas") / "table.tsv"
        with mock.patch.object(tableio, "ROW_BLOCK", 3):
            tableio.write_columns(path, schema, table)
            back = tableio.read_columns(path, schema)
        assert back.articles == table.articles
        assert list(back.columns) == list(schema)
        for column in schema:
            assert back[column].dtype == table[column].dtype
            assert same(back[column].tolist(), table[column].tolist())


TRAFFIC_HEADER = "\t".join(("article", *TRAFFIC))
TRAFFIC_ROWS = [f"A{i}\t{i}\t1\t0\t{i + 1}" for i in range(8)]


class TestBlocks:
    """Rows read in blocks of ROW_BLOCK lines report the same line as a
    row-by-row read, wherever the block boundaries fall."""

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 100])
    @pytest.mark.parametrize("row, fault, reason", [
        # in blocks of 3, rows 2 and 5 (lines 5 and 8) open a block
        (2, "A2\tx\t1\t0\t3", "count 'x' is not ASCII digits"),
        (2, "A0\t2\t1\t0\t3", "duplicate article 'A0'"),
        (2, "A2\t2\t1\t0", "expected 5 tab-separated cells, got 4"),
        (2, "A2\t2\t1\t0\t5", "inconsistent total_views for 'A2'"),
        (5, "A5\t5\t1\t0\t6\tx", "expected 5 tab-separated cells, got 6"),
        (6, "A2\t6\t1\t0\t7", "duplicate article 'A2'"),
    ])
    def test_first_bad_row_line(self, tmp_path, block, row, fault, reason):
        rows = TRAFFIC_ROWS.copy()
        rows[row] = fault
        rows.insert(1, "")  # an empty line 3, skipped but counted: row i >= 1 is on line i + 3
        path = tmp_path / "traffic.tsv"
        path.write_text(TRAFFIC_HEADER + "\n" + "\n".join(rows) + "\n")
        with mock.patch.object(tableio, "ROW_BLOCK", block), pytest.raises(DataError) as exc:
            read_traffic_table(path)
        assert str(exc.value) == f"{path}:{row + 3}: {reason}"

    @pytest.mark.parametrize("block", [2, 100])
    def test_rows_that_realign_in_a_block_are_caught(self, tmp_path, block):
        # six cells, then four: the block has 5 cells a row on average,
        # and split as one, its rows would read as A and B, both valid
        path = tmp_path / "traffic.tsv"
        path.write_text(TRAFFIC_HEADER + "\nA\t1\t1\t0\t2\tB\n1\t2\t0\t3\n")
        with mock.patch.object(tableio, "ROW_BLOCK", block), \
                pytest.raises(DataError, match=r":2: expected 5 tab-separated cells, got 6$"):
            read_traffic_table(path)

    @pytest.mark.parametrize("block", [1, 2, 3, 100])
    def test_unsorted_rows_come_back_sorted(self, tmp_path, block):
        rows = TRAFFIC_ROWS[4:] + TRAFFIC_ROWS[:4]
        path = tmp_path / "traffic.tsv"
        path.write_text(TRAFFIC_HEADER + "\n" + "\n".join(rows) + "\n")
        with mock.patch.object(tableio, "ROW_BLOCK", block):
            table = read_traffic_table(path)
        assert table.articles == tuple(f"A{i}" for i in range(8))
        assert table["in_se"].tolist() == list(range(8))
        # a repeat of a title from an earlier block, after the titles stopped ascending
        path.write_text(path.read_text() + "A5\t5\t1\t0\t6\n")
        with mock.patch.object(tableio, "ROW_BLOCK", block), pytest.raises(DataError, match=r":10: duplicate"):
            read_traffic_table(path)


def test_traffic_table_read_peak_per_row(tmp_path):
    """Reading a 40k-row traffic table holds at most 200 B a row at once
    (the row-at-a-time reader took 273 B)."""
    rng = np.random.default_rng(0)
    n = 40_000
    in_se, in_nav, out_nav = rng.integers(0, 10**6, (3, n))
    rows = ((f"Article_{i:06d}", a, b, c, a + b) for i, (a, b, c) in enumerate(zip(in_se, in_nav, out_nav)))
    path = tmp_path / "traffic.tsv"
    write_traffic_table(path, tableio.column_table(rows, TRAFFIC))
    table, peak = traced_peak(read_traffic_table, path)
    assert len(table) == n and table["total_views"].tolist() == (in_se + in_nav).tolist()
    assert peak / n <= 200

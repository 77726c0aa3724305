"""Block-wise line reading against the file object's own line iteration,
the ratio cell rule, and the exact bytes of the two output writers."""

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
from clickroles.errors import DataError, UsageError
from clickroles.tableio import iter_lines

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

    def test_matrix_must_be_2d(self, tmp_path):
        with pytest.raises(UsageError, match="matrix must be 2-D, got 1-D"):
            tableio.write_matrix_csv(tmp_path / "m.csv", np.zeros(3), {})
        assert not (tmp_path / "m.csv").exists()

    def test_uncreatable_directory_is_data_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(DataError, match=f"^cannot create output directory {re.escape(str(blocker))}: "):
            tableio.write_rows(blocker / "t.tsv", [(1,)])

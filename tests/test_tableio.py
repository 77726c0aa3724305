"""Block-wise line reading against the file object's own line iteration,
and the ratio cell rule."""

import gzip
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles import tableio
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

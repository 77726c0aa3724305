"""The loader of the compiled inner loops: its cache and its errors."""

from __future__ import annotations

import hashlib
import re
import shutil

import numpy as np
import pytest

from clickroles import native
from clickroles.errors import DataError
from clickroles.topics import Corpus, fit_lda

# documents a = [0, 0, 1, 2] and b = [1, 2, 2]
CORPUS = Corpus(
    ("a", "b"), ("w0", "w1", "w2"), np.array([0, 0, 1, 2, 1, 2, 2], np.int32), np.array([0, 4, 7], np.int64)
)
SETTING = {"k": 2, "alpha": 0.5, "beta": 0.01, "iterations": 3, "seed": 0}


@pytest.fixture
def compiles(tmp_path, monkeypatch):
    """A cache directory of this test's own, and the targets of every
    build started in it."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: nothing compiles")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    targets = []
    build = native._compile
    monkeypatch.setattr(native, "_compile", lambda cc, target: targets.append(target) or build(cc, target))
    return targets


def test_cache_file_is_named_by_the_source_digest(tmp_path, compiles):
    fit_lda(CORPUS, **SETTING)
    digest = hashlib.sha256(native.SOURCE.read_bytes()).hexdigest()
    # the build's temporary directory is gone, only the library is left
    assert [p.name for p in (tmp_path / "cache" / "clickroles").iterdir()] == [f"_sweep-{digest}.so"]


def test_second_fit_does_not_compile(compiles):
    first = fit_lda(CORPUS, **SETTING)
    assert len(compiles) == 1
    second = fit_lda(CORPUS, **SETTING)
    assert len(compiles) == 1
    assert all((a == b).all() for a, b in zip(first, second))


def test_unwritable_cache_compiles_for_the_process(tmp_path, compiles, monkeypatch):
    # a file where the cache directory should be: no directory can be made there
    (tmp_path / "cache").write_text("")
    lib = native.load()
    assert lib.lda_sweep.argtypes
    assert (tmp_path / "cache").read_text() == ""
    # built in a private directory outside the cache, removed once loaded
    assert len(compiles) == 1 and not compiles[0].is_relative_to(tmp_path)
    assert not compiles[0].parent.exists()
    # and the fit it serves is the one a library from a writable cache gives
    private = fit_lda(CORPUS, **SETTING)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "writable"))
    cached = fit_lda(CORPUS, **SETTING)
    assert len(compiles) == 3 and compiles[2].is_relative_to(tmp_path / "writable")
    assert all((a == b).all() for a, b in zip(private, cached))


def test_failed_build_raises_the_compiler_message(tmp_path, compiles, monkeypatch):
    flags = native.CC_FLAGS
    monkeypatch.setattr(native, "CC_FLAGS", ("-no-such-flag",))
    with pytest.raises(DataError, match=r"cc failed to build .*_sweep\.c \(exit \d+\): .*-no-such-flag"):
        fit_lda(CORPUS, **SETTING)
    # the build failed and left nothing in the cache
    assert len(compiles) == 1 and not list((tmp_path / "cache" / "clickroles").iterdir())
    monkeypatch.setattr(native, "CC_FLAGS", flags)
    assert native.load().lda_sweep.argtypes
    assert len(compiles) == 2


def test_unloadable_library_is_named(tmp_path, monkeypatch):
    # a file under the library's cache name that is no library at all
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    name = f"_sweep-{hashlib.sha256(native.SOURCE.read_bytes()).hexdigest()}.so"
    (tmp_path / "clickroles").mkdir()
    (tmp_path / "clickroles" / name).write_bytes(b"")
    with pytest.raises(DataError, match=f"^cannot load {re.escape(str(tmp_path / 'clickroles' / name))}: "):
        native.load()


def test_compiler_that_cannot_run_is_named(tmp_path, monkeypatch):
    # an empty executable file named cc: the system cannot run it
    (tmp_path / "bin").mkdir()
    cc = tmp_path / "bin" / "cc"
    cc.write_bytes(b"")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(DataError, match=f"^cannot run {re.escape(str(cc))}: "):
        native.load()
    assert not list((tmp_path / "cache" / "clickroles").iterdir())

"""The loader of the compiled inner loops: its cache and its fallbacks."""

from __future__ import annotations

import hashlib
import shutil

import numpy as np
import pytest

from clickroles import native
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
    assert lib is not None and lib.lda_sweep.argtypes
    assert (tmp_path / "cache").read_text() == ""
    # built in a private directory outside the cache, removed once loaded
    assert len(compiles) == 1 and not compiles[0].is_relative_to(tmp_path)
    assert not compiles[0].parent.exists()
    # and the fit it serves is the one the Python sweep gives
    compiled = fit_lda(CORPUS, **SETTING)
    monkeypatch.setattr(native, "load", lambda: None)
    python = fit_lda(CORPUS, **SETTING)
    assert all((a == b).all() for a, b in zip(compiled, python))



def test_failed_build_runs_the_python_sweep(tmp_path, compiles, monkeypatch):
    flags = native.CC_FLAGS
    monkeypatch.setattr(native, "CC_FLAGS", ("-no-such-flag",))
    python = fit_lda(CORPUS, **SETTING)
    # the build failed and left nothing in the cache
    assert len(compiles) == 1 and not list((tmp_path / "cache" / "clickroles").iterdir())
    monkeypatch.setattr(native, "CC_FLAGS", flags)
    compiled = fit_lda(CORPUS, **SETTING)
    assert len(compiles) == 2
    assert all((a == b).all() for a, b in zip(compiled, python))

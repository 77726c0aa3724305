"""Session setup shared by the test modules."""

import importlib
import warnings

import pytest

# A failing hypothesis test's report imports hypothesis.extra._patching,
# which imports libcst, and libcst's use of mypy_extensions.TypedDict
# raises DeprecationWarning. Under `python -W error` that warning becomes
# an error inside the report hook and ends the session in INTERNALERROR,
# losing the failure. Importing the module once here, with only that
# category ignored, lets the report find it already imported.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:  # libcst is optional; without it no report imports it
        pass


@pytest.fixture(scope="session", autouse=True)
def compiled_cache(tmp_path_factory):
    """Builds the compiled sweep into the session's temporary directory
    rather than the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield

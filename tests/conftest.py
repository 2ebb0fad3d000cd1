"""Make the oracle helpers importable, set the Hypothesis defaults and give
the fixtures that doctor the incidence rows behind the cached Gram matrices
and clear the cached search catalogues and ranks of M."""

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# No per-example deadline: core speed on shared machines drifts enough that
# timing an example says nothing about the code under test.
settings.register_profile("default", deadline=None)
settings.load_profile("default")


def _clear_rank_of_M():
    from ekrperm import ekrverify

    ekrverify.rank_M_check.cache_clear()


@pytest.fixture(autouse=True)
def fresh_rank_of_M():
    """ekrverify.rank_M_check's per-degree cache, cleared before and after
    every test, so no test reads a rank of M certified on another test's
    rows, Gram matrices or patched rank profile."""
    _clear_rank_of_M()
    yield
    _clear_rank_of_M()


@pytest.fixture
def fresh_grams():
    """ekrverify.bordered_grams with its per-degree cache cleared before and
    after the test, so the Gram matrices are formed from the rows it sees,
    and with them the rank of M read on them."""
    from ekrperm import ekrverify

    ekrverify.bordered_grams.cache_clear()
    _clear_rank_of_M()
    yield ekrverify.bordered_grams
    ekrverify.bordered_grams.cache_clear()
    _clear_rank_of_M()


@pytest.fixture
def fresh_search():
    """graphs' per-degree search catalogues, cleared before and after the
    test, so each search runs on the code the test sees; clear() it again
    to search a degree once more."""
    from ekrperm import graphs

    graphs._catalogues.clear()
    yield graphs._catalogues
    graphs._catalogues.clear()


@pytest.fixture
def doctor_incidence(monkeypatch, fresh_grams):
    """install(edit) reads ekrverify.incidence(n) as edit(the real record);
    the Gram matrices are then formed from the edited rows."""
    from ekrperm import ekrverify

    real = ekrverify.incidence

    def install(edit):
        monkeypatch.setattr(ekrverify, "incidence", lambda n: edit(real(n)))

    return install

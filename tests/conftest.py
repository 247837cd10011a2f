import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

sys.path.insert(0, str(Path(__file__).parent))

from growthlab import MarkedGroup, ProjectionMap, Word

# tools/mutants.py selects this profile: the same draws on every run, so a
# verdict can be rerun, and no shrinking, whose reruns of a failing test
# could outlast the tool's timeout
settings.register_profile("mutants", derandomize=True,
                          phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture(scope="session")
def f2():
    return MarkedGroup.free(2)


@pytest.fixture(scope="session")
def z23():
    return MarkedGroup.free_product([2, 3])


@pytest.fixture(scope="session")
def z22():
    return MarkedGroup.free_product([2, 2])


@pytest.fixture(scope="session")
def z42():
    return MarkedGroup.free_product([4, 2])


@pytest.fixture()
def products(monkeypatch):
    """The count of ``Word`` products made since the fixture was set up."""
    count = [0]
    mul = Word.__mul__

    def counting(u, v):
        count[0] += 1
        return mul(u, v)

    monkeypatch.setattr(Word, "__mul__", counting)
    return count


@pytest.fixture()
def projections(monkeypatch):
    """The count of axis projections computed, not read from a memo
    (``ProjectionMap._nearest`` calls), since the fixture was set up."""
    count = [0]
    nearest = ProjectionMap._nearest

    def counting(pm, x):
        count[0] += 1
        return nearest(pm, x)

    monkeypatch.setattr(ProjectionMap, "_nearest", counting)
    return count

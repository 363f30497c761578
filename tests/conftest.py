import contextlib

import pytest

from cornerforge import limits, patterns

# the two routes of the grid code, and the `patterns._PLAIN_STEPS` that puts
# every count on each: 0 sends any work to numpy, 2**62 is past any input
ROUTES = {"numpy": 0, "plain": 1 << 62}


@pytest.fixture
def cell_limit(monkeypatch):
    """Lower the one cell limit, `limits.MAX_CELLS`, for one test: call the
    fixture with the new number of cells, as often as the test needs."""

    def lower(cells: int) -> None:
        monkeypatch.setattr(limits, "MAX_CELLS", cells)

    return lower


@pytest.fixture(scope="session")
def grid_route():
    """Put the grid code on one route for a block: `with grid_route(name):`
    sets the one route constant, `patterns._PLAIN_STEPS`, to ROUTES[name]
    and restores it after.  Session-scoped, so a hypothesis test can run
    each of its cases on both routes."""

    @contextlib.contextmanager
    def use(route: str):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patterns, "_PLAIN_STEPS", ROUTES[route])
            yield

    return use


@pytest.fixture
def built_pairs(monkeypatch):
    """The (unit, block) of every keep/wrap pair built, in order."""
    replicate = patterns._replicate
    built = []

    def counting(*args):
        built.append(args[:2])
        return replicate(*args)

    monkeypatch.setattr(patterns, "_replicate", counting)
    return built

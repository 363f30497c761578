import pytest

from cornerforge import limits, patterns


@pytest.fixture
def cell_limit(monkeypatch):
    """Lower the one cell limit, `limits.MAX_CELLS`, for one test: call the
    fixture with the new number of cells, as often as the test needs."""

    def lower(cells: int) -> None:
        monkeypatch.setattr(limits, "MAX_CELLS", cells)

    return lower


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

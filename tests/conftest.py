import pytest

from gicsat import definability
from gicsat.definability import DefinabilityContext


class FreshContext(DefinabilityContext):
    """Answers each query from a newly built context.

    No learned clause or other incremental state of the shared engine carries
    from one query to the next, so this is the reference the shared context
    is cross-checked against.
    """

    def query(self, defining, target, budget=None):
        return DefinabilityContext(self.inst).query(defining, target, budget)


@pytest.fixture
def fresh_context():
    return FreshContext


@pytest.fixture
def engine_only(monkeypatch):
    """With a graph-search budget of 0, every query with a start (every
    run_gismo query) goes to the engine."""
    monkeypatch.setattr(definability, "SEARCH_NODES", 0)

import pytest

from gicsat.definability import DefinabilityContext


class EngineContext(DefinabilityContext):
    """Answers every query with `engine_query`: the Padoa check on the
    two-copy base, one shared engine for all of them, and the query's
    budget as its conflict budget."""

    def query(self, defining, target, budget=None):
        return self.engine_query(defining, target, budget)


class FreshContext(DefinabilityContext):
    """Answers each query with `engine_query` on a newly built context.

    No learned clause or other incremental state of an engine carries from
    one query to the next, so this is the reference that the shared engine
    of `EngineContext` is cross-checked against.
    """

    def query(self, defining, target, budget=None):
        return DefinabilityContext(self.inst).engine_query(defining, target, budget)


@pytest.fixture
def engine_context():
    return EngineContext


@pytest.fixture
def fresh_context():
    return FreshContext

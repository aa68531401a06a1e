import pytest

from fmethod import engine


@pytest.fixture
def patch_dpi_hat_parts(monkeypatch):
    """A setter for `engine.dpi_hat_parts` that empties the `_lie_data` cache first.

    The records that the test's solves build then read the patch, and the
    cache is emptied again after the test, so none of them is left cached
    for a later test.
    """

    def patch(fake):
        engine._lie_data.cache_clear()
        monkeypatch.setattr(engine, "dpi_hat_parts", fake)

    yield patch
    engine._lie_data.cache_clear()

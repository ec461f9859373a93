import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from bruhat_forge import closedform

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

_CLOSED_FORM_MEMOS = (closedform.kl_column,)


@pytest.fixture
def restore_closed_forms(monkeypatch):
    """For a test that patches bruhat_forge.closedform: a call that undoes
    the test's monkeypatch and clears the closed-form memo, made again
    when the test ends.  The memo would otherwise keep what a patched
    formula gave: kl_column keeps each column it read off a patched
    closed_form_terms."""

    def restore():
        monkeypatch.undo()
        for memo in _CLOSED_FORM_MEMOS:
            memo.cache_clear()

    yield restore
    restore()

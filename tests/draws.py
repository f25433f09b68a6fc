"""A helper for the tests that check that bad input stops a run before any draw.

It lives here, not in conftest.py, because the conftest reference imports
no qtomo code (see test_acceptance.test_reference_imports_no_qtomo).
"""

from qtomo import measurement


def count_draws(monkeypatch) -> list:
    """Record every outcome law built and every dataset drawn from now on."""
    calls = []
    for name in ("outcome_law", "draw_dataset"):
        monkeypatch.setattr(
            measurement, name,
            lambda *a, f=getattr(measurement, name): calls.append(1) or f(*a),
        )
    return calls

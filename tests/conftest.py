"""Helpers shared by the test modules."""

import numpy as np
import pytest
from hypothesis import settings

# CI selects this with --hypothesis-profile=ci, so a failing draw prints the
# @reproduce_failure line that replays it
settings.register_profile("ci", print_blob=True)


def _structurally_equal(a, b) -> bool:
    """Deep comparison of two problems: variables, rows, constraint identity."""
    if len(a.vars) != len(b.vars) or len(a.linear) != len(b.linear):
        return False
    if len(a.nonlinear) != len(b.nonlinear):
        return False
    for va, vb in zip(a.vars, b.vars):
        if (va.name, va.integral) != (vb.name, vb.integral):
            return False
        if not (np.isclose(va.lower, vb.lower) and np.isclose(va.upper, vb.upper)):
            return False
    for ra, rb in zip(a.linear, b.linear):
        if ra.sense != rb.sense or not np.isclose(ra.rhs, rb.rhs):
            return False
        if not np.allclose(ra.coeffs, rb.coeffs):
            return False
    for ca, cb in zip(a.nonlinear, b.nonlinear):
        if ca.sense != cb.sense or ca.support != cb.support:
            return False
    return True


@pytest.fixture
def structurally_equal():
    return _structurally_equal

"""Set-up shared by every test."""

import pytest

import hhcert.chains


@pytest.fixture(autouse=True)
def forget_the_last_means():
    """Start each test with no kept ``chains._means`` result.

    A test that counts quadrature passes or evaluator points would otherwise
    count nothing when an earlier test left the same f, a, b and tol behind.
    """
    hhcert.chains._last_means = ((), None)

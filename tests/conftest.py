import math
from fractions import Fraction

import pytest
from hypothesis import settings

from padiclift import polys
from padiclift.bell import BellTable
from padiclift.factorize import SeriesInput

# Property tests draw the same examples on every run and never fail on
# timing, so the suite stays deterministic.
settings.register_profile("padiclift", derandomize=True, deadline=None, database=None)
settings.load_profile("padiclift")


def bell_table(xs, n_max):
    """The BellTable of B(n, k) on the Bell arguments xs: the table on the
    ordinary coefficients a_j = x_j / j!, the one such conversion here."""
    return BellTable([Fraction(x) / math.factorial(j) for j, x in enumerate(xs, start=1)], n_max)


@pytest.fixture
def evaluation_budget(monkeypatch):
    """``limit_to(n)`` counts the evaluations of polynomials and series inputs
    (``polys.evaluate`` and the two ``SeriesInput`` evaluators) and fails the
    one past ``n``, so a search that runs without bound fails at once."""
    count = [0]

    def limit_to(limit):
        def counted(fn):
            def wrapper(*args):
                count[0] += 1
                if count[0] > limit:
                    raise AssertionError(f"more than {limit} evaluations")
                return fn(*args)
            return wrapper

        monkeypatch.setattr(polys, "evaluate", counted(polys.evaluate))
        for name in ("eval_exact", "eval_derivative_exact"):
            monkeypatch.setattr(SeriesInput, name, counted(vars(SeriesInput)[name]))
        return count

    return limit_to

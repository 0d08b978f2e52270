"""Exact arithmetic for explicit Hensel lifting and Z[[x]] factorization.

The pieces, bottom up:

* :mod:`padiclift.bigmath` - valuations, falling factorials, binomials;
* :mod:`padiclift.bell` - partial Bell polynomials (recurrence + the
  partition-sum oracle);
* :mod:`padiclift.padic` - Z_p elements at fixed precision;
* :mod:`padiclift.series` - truncated power series, Lagrange inversion,
  formal roots;
* :mod:`padiclift.hensel` - closed-form Hensel lifts, cross-checked
  against Newton iteration; Teichmuller lifts;
* :mod:`padiclift.factorize` - factorization of +-p^w + p^m g1 x + ... in
  Z[[x]] (f_1 = 0 allowed) from the digits of a small p-adic root;
* :mod:`padiclift.cli` - the command-line driver.
"""

from .bigmath import INFINITY, binom, falling, is_prime, vp, vp_factorial, vp_rat
from .bell import BellTable, bell_falling, bell_oracle
from .padic import AtLeast, PadicInt
from .series import (InversionProblem, Series, formal_root_brackets,
                     formal_root_brackets_alt, formal_root_series,
                     formal_root_terms, lagrange_invert, trinomial_root_terms)
from .hensel import (LiftReport, lift_all, lift_cubic, lift_general,
                     lift_quadratic, lift_simple, lift_sparse, newton_lift,
                     taylor_shift, teichmuller, teichmuller_oracle)
from .factorize import (Classification, FactorPair, SeriesInput, classify,
                        factor, factor_multiple_root, verify_factorization)

__version__ = "0.1.0"

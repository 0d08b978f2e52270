"""p-adic integers at fixed finite precision.

A :class:`PadicInt` is a residue mod p**N together with (p, N); this is
the interval-style model: the value is known modulo p**N and nothing is
claimed beyond that.  Mixed-precision arithmetic truncates to the smaller
precision.  Elements of Q_p with negative valuation are rejected, since
everything downstream lives in Z_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .bigmath import check_prime_base, vp, vp_rat
from .errors import DomainError


class NotPadicInteger(DomainError):
    """Rational with negative p-adic valuation: not in Z_p."""


class NotAUnit(DomainError):
    """Inversion requested for an element of valuation > 0."""


class PrimeMismatch(DomainError):
    """Arithmetic between elements of different Z_p rings."""


@dataclass(frozen=True)
class AtLeast:
    """Valuation marker: the residue is 0 mod p**bound, so vp >= bound.

    Finite precision cannot certify vp = infinity, only a lower bound.
    """

    bound: int

    def __repr__(self):
        return f"AT_LEAST({self.bound})"


@dataclass(frozen=True)
class PadicInt:
    """An element of Z_p known modulo p**precision."""

    p: int
    precision: int
    residue: int

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        check_prime_base(self.p)
        if not 0 <= self.residue < self.p ** self.precision:
            object.__setattr__(self, "residue", self.residue % self.p ** self.precision)

    @property
    def modulus(self) -> int:
        return self.p ** self.precision

    # -- construction -------------------------------------------------

    @classmethod
    def from_int(cls, a: int, p: int, N: int) -> "PadicInt":
        return cls(p, N, a)

    @classmethod
    def from_rat(cls, x, p: int, N: int) -> "PadicInt":
        """Reduce a rational with vp >= 0 modulo p**N.

        After reduction the denominator is coprime to p, so it has an
        inverse mod p**N.  Raises NotPadicInteger when vp(x) < 0.
        """
        x = Fraction(x)
        v = vp_rat(x, p)
        if v < 0:
            raise NotPadicInteger(f"vp({x}) = {v} < 0, not in Z_{p}")
        m = p ** N
        return cls(p, N, x.numerator * pow(x.denominator, -1, m) % m)

    # -- queries -------------------------------------------------------

    def valuation(self):
        """Exact vp of the residue, or AT_LEAST(N) when the residue is 0."""
        if self.residue == 0:
            return AtLeast(self.precision)
        return vp(self.residue, self.p)

    def digits(self) -> tuple:
        """Base-p digits d_0, d_1, ..., d_(N-1) of the residue, lowest first."""
        ds = []
        r = self.residue
        for _ in range(self.precision):
            r, d = divmod(r, self.p)
            ds.append(d)
        return tuple(ds)

    def unit_inverse(self) -> "PadicInt":
        """Multiplicative inverse, defined exactly when vp = 0."""
        if self.residue % self.p == 0:
            raise NotAUnit(f"valuation of {self.residue} is positive, not invertible in Z_{self.p}")
        return PadicInt(self.p, self.precision, pow(self.residue, -1, self.modulus))

    # -- ring operations (min-precision semantics) ---------------------

    def _coerce(self, other):
        if isinstance(other, PadicInt):
            if other.p != self.p:
                raise PrimeMismatch(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return PadicInt.from_int(other, self.p, self.precision)
        return NotImplemented

    def _binop(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        N = min(self.precision, other.precision)
        return PadicInt(self.p, N, op(self.residue, other.residue) % self.p ** N)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.p, self.precision, -self.residue % self.modulus)

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        return PadicInt(self.p, self.precision, pow(self.residue, e, self.modulus))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        parts = []
        for i, d in enumerate(self.digits()):
            if i == 0:
                parts.append(str(d))
            elif i == 1:
                parts.append(f"{d}*{self.p}")
            else:
                parts.append(f"{d}*{self.p}^{i}")
        parts.append(f"O({self.p}^{self.precision})")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "precision": self.precision,
            "digits": list(self.digits()),
        }

    @classmethod
    def from_json(cls, d: dict) -> "PadicInt":
        return cls(d["p"], d["precision"], polys.evaluate(d["digits"], d["p"]))

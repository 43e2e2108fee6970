"""Truncated formal power series over exact rationals.

A series is a finite coefficient vector (f_0, ..., f_N) representing
f(z) = sum f_n z^n truncated at order N.  All arithmetic is exact: the
coefficients are ``fractions.Fraction`` values and no rounding ever occurs.
Binary operations first truncate both operands to the smaller order, so the
result order is always min(order(f), order(g)).

The ring operations are the usual ones:

* addition / subtraction: coefficientwise;
* multiplication: Cauchy product, h_n = sum_{k} f_k g_{n-k};
* inverse: the recurrence g_0 = 1/f_0, g_n = -(1/f_0) sum_{j>=1} f_j g_{n-j};
* exp / log: the differential recurrences derived from (exp f)' = f' exp f
  and (log f)' = f'/f.

Counting sequences enter the ring through :func:`counting_to_series`, which
divides by n! in labeled mode (exponential generating function) and is the
identity in unlabeled mode (ordinary generating function);
:func:`series_to_counting` goes back, refusing labeled series whose
coefficients are not of the form integer/n!.

>>> geometric = PowerSeries.from_ints([1, -1], order=5).inverse()
>>> geometric.coefficients
(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .errors import BadConstantTerm, NonIntegerCount, ZeroConstantTerm

__all__ = [
    "PowerSeries",
    "counting_to_series",
    "series_to_counting",
]

Rational = Fraction | int


@dataclass(frozen=True)
class PowerSeries:
    """Immutable truncated power series; ``coefficients[n]`` is [z^n]."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("a series stores at least the constant term")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_coefficients(values: Iterable[Rational], order: int | None = None) -> "PowerSeries":
        coeffs = [Fraction(v) for v in values]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            coeffs = (coeffs + [Fraction(0)] * (order + 1))[: order + 1]
        return PowerSeries(tuple(coeffs))

    @staticmethod
    def from_ints(values: Iterable[int], order: int | None = None) -> "PowerSeries":
        return PowerSeries.from_coefficients(values, order)

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries(tuple(Fraction(0) for _ in range(order + 1)))

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries((Fraction(1),) + tuple(Fraction(0) for _ in range(order)))

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.coefficients[: order + 1])

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(tuple(self[i] + other[i] for i in range(n + 1)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(tuple(self[i] - other[i] for i in range(n + 1)))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coefficients))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            fi = self.coefficients[i]
            if not fi:
                continue
            for j in range(n + 1 - i):
                gj = other.coefficients[j]
                if gj:
                    out[i + j] += fi * gj
        return PowerSeries(tuple(out))

    def inverse(self) -> "PowerSeries":
        if self[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        n = self.order
        inv0 = 1 / self[0]
        out = [Fraction(0)] * (n + 1)
        out[0] = inv0
        for i in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, i + 1):
                fj = self.coefficients[j]
                if fj:
                    acc += fj * out[i - j]
            out[i] = -inv0 * acc
        return PowerSeries(tuple(out))

    def pow(self, m: int) -> "PowerSeries":
        if m < 0:
            raise ValueError("nonnegative exponents only")
        result = PowerSeries.one(self.order)
        for _ in range(m):
            result = result * self
        return result

    def exp(self) -> "PowerSeries":
        if self[0] != 0:
            raise BadConstantTerm("exp needs constant term 0")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        # n e_n = sum_{k=1}^{n} k f_k e_{n-k}   from  e' = f' e
        for i in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, i + 1):
                fk = self.coefficients[k]
                if fk:
                    acc += k * fk * out[i - k]
            out[i] = acc / i
        return PowerSeries(tuple(out))

    def log(self) -> "PowerSeries":
        if self[0] != 1:
            raise BadConstantTerm("log needs constant term 1")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        # n l_n = n f_n - sum_{k=1}^{n-1} k l_k f_{n-k}   from  l' f = f'
        for i in range(1, n + 1):
            acc = i * self.coefficients[i]
            for k in range(1, i):
                lk = out[k]
                if lk:
                    acc -= k * lk * self.coefficients[i - k]
            out[i] = acc / i
        return PowerSeries(tuple(out))


# ---------------------------------------------------------------------------
# Counting values <-> generating functions
# ---------------------------------------------------------------------------


def counting_to_series(values: Sequence[int], labeling: str, order: int) -> PowerSeries:
    """Build the generating function of ``values`` up to ``order``.

    ``labeling`` is "labeled" (coefficients a_n/n!) or "unlabeled"
    (coefficients a_n).  ``values`` must cover indices 0..order.
    """
    if labeling not in ("labeled", "unlabeled"):
        raise ValueError(f"unknown labeling {labeling!r}")
    if len(values) < order + 1:
        raise ValueError("not enough values for the requested order")
    if labeling == "labeled":
        coeffs = [Fraction(values[n], factorial(n)) for n in range(order + 1)]
    else:
        coeffs = [Fraction(values[n]) for n in range(order + 1)]
    return PowerSeries(tuple(coeffs))


def series_to_counting(f: PowerSeries, labeling: str) -> tuple[int, ...]:
    """Recover counting values from a generating function.

    Labeled mode multiplies by n! and demands integrality; unlabeled mode
    demands the coefficients themselves be integers.
    """
    if labeling not in ("labeled", "unlabeled"):
        raise ValueError(f"unknown labeling {labeling!r}")
    out = []
    for n, c in enumerate(f.coefficients):
        v = c * factorial(n) if labeling == "labeled" else c
        if v.denominator != 1:
            raise NonIntegerCount(
                f"coefficient at z^{n} gives non-integer count {v} in {labeling} mode"
            )
        out.append(int(v))
    return tuple(out)


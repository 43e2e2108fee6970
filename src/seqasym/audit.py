"""Finite-range evidence for the gargantuan conditions.

Every asymptotic statement in this package assumes the reduced counting
sequence u_n (a_n/n! for labeled classes, a_n for unlabeled ones, taken on
the reindexed support for periodic classes) is *gargantuan*:

    (i)   u_{n-1}/u_n -> 0,
    (ii)  sum_{k=r}^{n-r} |u_k u_{n-k}| = O(u_{n-r})   for every fixed r >= 1.

No finite computation proves either condition, so the audit never says
"gargantuan: yes".  It computes exact traces over a range n <= N and renders
one of two verdicts:

* ``evidence-consistent`` — the ratio trace keeps shrinking across the tail
  of the range and midpoint monotonicity holds at (almost) every tail size;
* ``visibly-failing`` — the data contradicts the conditions outright, e.g.
  the ratio trace is flat (linear orders with d=1: u_n = 1 for all n).

Two sufficient conditions are also checked and reported as flags with
witnesses: n·u_{n-1} = O(u_n) (witnessed by the largest observed n·u_{n-1}/u_n)
and |u_k u_{n-k}| nonincreasing for 1 <= k < n/2 (first violation recorded).
Either flag may be False for a sequence that is nonetheless gargantuan; the
flags are evidence for a *sufficient* criterion, not for the property itself.

Every audit runs on integers P_0..P_N, in one pass over n.  A class is
audited on its own values, read with the stride p of its period:
P_k = a_{pk}.  For a labeled class, u_k = a_{pk}/(pk)! and

    u_k u_{n-k} = C(pn,pk)·P_k·P_{n-k} / (pn)!,

so with the half products h_k = C(pn,pk)·|P_k P_{n-k}| (k <= n/2, summed
by the symmetry h_k = h_{n-k})

    S_{n,r} = (sum_{k=r}^{n-r} h_k) / ((pn)!/(p(n-r))!·P_{n-r}),
    u_{n-1}/u_n = (pn)!/(p(n-1))!·P_{n-1}/P_n.

The binomials are read off one Pascal row carried from n to n, on its
first half j <= pn/2 only (pk <= pn/2 is all it reads).  An unlabeled class
takes the same formulas with weight p = 0: no binomial, and every falling
factorial is 1.  In either form the midpoint test
|u_k u_{n-k}| < |u_{k+1} u_{n-k-1}| is h_k < h_{k+1}, the common factor
1/(pn)! cancelling, so one pass shares the h_k between both traces.
The first P_n = 0 ends the audit: its ratio trace stops at n-1, where the
ratios become undefined, and the verdict is ``visibly-failing``.

Every step splits off powers of two, which the values of classes like
tournaments (a_n = 2^C(n,2)) carry in most of their bits.  With
P_k = o_k·2^{t_k}, o_k odd (t_k = 0 when P_k = 0, as u_0 may be), each half
product is a product of the odd parts, shifted.  Before each trace value is
built, its numerator and denominator lose their powers of two separately;
the gcd runs on the odd parts, and the power 2^e of the difference goes
back into the numerator (e > 0) or the denominator (e < 0) of the reduced
fraction.  That one gcd is the only one: the fraction is then in lowest
terms, and the ``Fraction`` is built from it without normalising again,
where ``Fraction(p, q)`` would take a second gcd of the full values.

The labeled form never divides by (pk)!: its scale, the falling factorial
(pn)!/(p(n-r))!, has a few dozen bits, where the common denominator of the
reduced values u_k has thousands.  On tournaments, a_n = (d+1)^C(n,2): for
d = 1 every a_n is a power of two, so each h_k is a shifted binomial and
the odd part of each denominator is that of the falling factorial alone.
On a 2-vCPU VM (best of 7 runs) the audit of tournaments(1) at N = 240 took
24 ms where the same pass over u_k scaled to a common denominator took
95 ms.  When every (pk)! divides P_k (linear orders, linear matchings: the
reduced values are integers), the weight C(pn,pk)·(pk)!·(p(n-k))! = (pn)! is
the same for every h_k and divides the scale c, so it cancels: the pass
runs on the quotients u_k with p = 0 and carries no (pn)! (linear matchings
at N = 240: 14 ms, where the weighted pass took 47 ms, best of 15 on the
same VM).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from operator import add
from typing import NamedTuple, Sequence

from .catalog import CountingSequence
from .errors import RangeError

__all__ = ["AuditReport", "audit"]


@dataclass(frozen=True)
class AuditReport:
    """Exact finite-range audit traces plus a two-valued verdict."""

    class_name: str
    N: int
    r_max: int
    ratio_trace: tuple[Fraction, ...]  # u_{n-1}/u_n for n = 1..N
    convolution_trace: dict[int, tuple[Fraction, ...]] = field(repr=False)
    # convolution_trace[r][i] = S_{n,r} = (sum_{k=r}^{n-r} |u_k u_{n-k}|)/u_{n-r}
    # at n = 2r + i, up to n = N.
    ratio_linear_bound: bool = True
    ratio_linear_witness: Fraction = Fraction(0)
    midpoint_monotone: bool = True
    midpoint_first_violation: tuple[int, int] | None = None  # (n, k)
    verdict: str = "evidence-consistent"
    notes: tuple[str, ...] = ()

    def ratio(self, n: int) -> Fraction:
        if not 1 <= n <= self.N:
            raise RangeError(f"ratio index {n} outside 1..{self.N}")
        return self.ratio_trace[n - 1]


def _report(name: str, N: int, r_max: int, P: Sequence[int], p: int) -> AuditReport:
    """The audit of the integers P_0..P_N >= 0 (see the module docstring):
    with p >= 1 the labeled form, P_k = a_{pk}, on u_k = P_k/(pk)! when those
    are all integers; with p = 0 an unlabeled class."""
    if p:  # when every (pk)! divides P_k, the (pn)! that every h_k and the
        # scale c share cancels: audit the quotients u_k with weight p = 0
        u, f = [P[0]], 1
        for k in range(1, N + 1):
            f *= prod(range(p * k - p + 1, p * k + 1))
            q, rest = divmod(P[k], f)
            if rest:
                break
            u.append(q)
        else:
            P, p = u, 0
    ratios: list[Fraction] = []
    for n in range(1, N + 1):  # u_{n-1}/u_n = (pn)!/(p(n-1))!·P_{n-1}/P_n
        if not P[n]:
            return AuditReport(
                class_name=name,
                N=N,
                r_max=r_max,
                ratio_trace=tuple(ratios),
                convolution_trace={},
                ratio_linear_bound=False,
                midpoint_monotone=False,
                verdict="visibly-failing",
                notes=(f"u_{n} = 0: ratios undefined past n={n - 1}",),
            )
        e = _twos(P[n])
        ratios.append(_fraction(prod(range(p * n - p + 1, p * n + 1)) * P[n - 1], P[n] >> e, e))

    # Sufficient-condition flags (Lemma-style, over the whole range).
    linear = [n * ratios[n - 1] for n in range(1, N + 1)]
    witness = max(linear)
    tail_start = N - N // 4 + 1
    linear_ok = max(linear[tail_start - 1 :]) <= max(linear[: tail_start - 1])

    # Convolution traces and midpoint test in one integer pass over n (see
    # the module docstring), with P_k = o_k·2^{t_k}.
    t = [_twos(x) for x in P]
    o = [x >> e for x, e in zip(P, t)]
    t_c, o_c = 0, 1  # the scale c = o_c·2^{t_c}: 1 with weight p = 0
    row, m = [1], 0  # C(m, j) for j = 0..m/2, m = pn in the labeled form
    conv_lists: dict[int, list[Fraction]] = {r: [] for r in range(1, r_max + 1)}
    first_violation = None
    bad_tail = 0
    for n in range(2, N + 1):
        half = n // 2
        # h[k] = w(n,k)·|P_k P_{n-k}| for k <= n/2, w = 1 or C(pn, pk)
        if p:
            while m < p * n:  # C(m+1, j) = C(m, j-1) + C(m, j); at odd m the
                # new middle entry C(m+1, (m+1)/2) is 2·C(m, (m-1)/2) by symmetry
                row = [1, *map(add, row, row[1:])] + ([2 * row[-1]] if m % 2 else [])
                m += 1
            h = [0] + [
                (row[p * k] * o[k] * o[n - k]) << (t[k] + t[n - k]) for k in range(1, half + 1)
            ]
        else:
            h = [0] + [(o[k] * o[n - k]) << (t[k] + t[n - k]) for k in range(1, half + 1)]
        bad = next((k for k in range(1, half) if h[k] < h[k + 1]), None)
        if bad is not None:
            if first_violation is None:
                first_violation = (n, bad)
            if n >= tail_start:
                bad_tail += 1
        s = 2 * sum(h) - (h[half] if n % 2 == 0 else 0)  # sum_{k=1}^{n-1} h_k
        c = 1
        for r in range(1, min(r_max, half) + 1):
            # S_{n,r} = s / (c·P_{n-r})
            if p:  # the scale of the labeled form, c = (pn)!/(p(n-r))!
                c *= prod(range(p * (n - r) + 1, p * (n - r + 1) + 1))
                t_c = _twos(c)
                o_c = c >> t_c
            conv_lists[r].append(_fraction(s, o_c * o[n - r], t_c + t[n - r]))
            s -= 2 * h[r]
    conv = {r: tuple(trace) for r, trace in conv_lists.items()}

    # Verdict: does the ratio trace keep shrinking across the tail, and does
    # midpoint monotonicity hold at more than half of the tail sizes?
    r_start, r_end = ratios[tail_start - 1], ratios[N - 1]
    shrinks = r_end < r_start and 10 * r_end <= 9 * r_start
    persistent = 2 * bad_tail > N - tail_start + 1
    verdict = "evidence-consistent" if shrinks and not persistent else "visibly-failing"

    return AuditReport(
        class_name=name,
        N=N,
        r_max=r_max,
        ratio_trace=tuple(ratios),
        convolution_trace=conv,
        ratio_linear_bound=linear_ok,
        ratio_linear_witness=witness,
        midpoint_monotone=first_violation is None,
        midpoint_first_violation=first_violation,
        verdict=verdict,
    )


def _twos(x: int) -> int:
    """The exponent of 2 in x; 0 for x = 0."""
    return (x & -x).bit_length() - 1 if x else 0


def _fraction(num: int, den_odd: int, den_twos: int) -> Fraction:
    """num / (den_odd·2^den_twos) for an odd den_odd, with the one gcd taken on
    the odd parts.

    The result is then in lowest terms, so it is handed to ``Fraction`` as a
    ``numbers.Rational`` whose numerator and denominator are copied as they
    are, not reduced by a second gcd of the full values.
    """
    if not num:
        return Fraction(0)
    if den_odd < 0:
        num, den_odd = -num, -den_odd
    e = _twos(num)
    num >>= e
    g = gcd(num, den_odd)
    num, den_odd = num // g, den_odd // g
    e -= den_twos
    return Fraction(_Reduced(num << e, den_odd) if e >= 0 else _Reduced(num, den_odd << -e))


class _Reduced(NamedTuple):
    """A numerator and a positive denominator already in lowest terms.

    Registered as a ``numbers.Rational``, for which ``Fraction(r)`` copies
    ``r.numerator`` and ``r.denominator`` without normalising them.
    """

    numerator: int
    denominator: int


numbers.Rational.register(_Reduced)


def audit(A: CountingSequence, N: int, r_max: int = 3) -> AuditReport:
    """Audit a catalog or custom class on its own values a_{pk}, read with
    the stride p of its period; a labeled class weighs them by C(pn,pk)."""
    if N < 10:
        raise RangeError(f"--N {N}: audit needs N >= 10 to have a meaningful tail")
    if r_max < 1:
        raise RangeError("r_max must be >= 1")
    p = A.period
    name = A.name if p == 1 else f"{A.name}[/{p}]"
    return _report(name, N, r_max, A.values(p * N)[::p], p if A.labeling == "labeled" else 0)

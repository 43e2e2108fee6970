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
factorial is 1.  :func:`audit_sequence` takes reduced rationals u_k instead;
with L the lcm of their denominators it audits P_k = u_k·L, also with
p = 0, and S_{n,r} = (sum h_k) / (L·P_{n-r}).  In every form the midpoint
test |u_k u_{n-k}| < |u_{k+1} u_{n-k-1}| is h_k < h_{k+1}, the common factor
1/(pn)! or 1/L² cancelling, so one pass shares the h_k between both traces.
The first P_n = 0 ends the audit: its ratio trace stops at n-1, where the
ratios become undefined, and the verdict is ``visibly-failing``.

Every step splits off powers of two, which the values of classes like
tournaments (a_n = 2^C(n,2)) carry in most of their bits.  With
|P_k| = o_k·2^{t_k}, o_k odd (t_k = 0 when P_k = 0, as u_0 may be), each half
product is a product of the odd parts, shifted.  Before each trace value is
built, its numerator and denominator lose their powers of two separately;
the gcd runs on the odd parts, and the power 2^e of the difference goes
back into the numerator (e > 0) or the denominator (e < 0) of the reduced
fraction.  That one gcd is the only one: the fraction is then in lowest
terms, and the ``Fraction`` is built from it without normalising again,
where ``Fraction(p, q)`` would take a second gcd of the full values.

A labeled class never forms L: the falling factorial (pn)!/(p(n-r))! has a
few dozen bits where L has thousands.  On tournaments, a_n = (d+1)^C(n,2):
for d = 1 every a_n is a power of two, so each h_k is a shifted binomial
and the odd part of each denominator is that of the falling factorial
alone.  On a 2-vCPU VM (best of 7 runs alternating with the reduced form in
one process) the audit of tournaments(1) at N = 240 took 24 ms instead of
95 ms, and of tournaments(2) at N = 120 39 ms instead of 48 ms.  When every
(pk)! divides P_k (linear orders, linear matchings: the reduced values are
integers), the weight C(pn,pk)·(pk)!·(p(n-k))! = (pn)! is the same for every
h_k and divides the scale c, so it cancels: the pass runs on the quotients
u_k with p = 0 and carries no (pn)! (linear matchings at N = 240: 14 ms, where
the weighted pass took 47 ms, best of 15 on the same VM).  The reduced form
stays for the callers of :func:`audit_sequence`: the closure and
perturbation checks, whose sequences are no class's counts.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import add
from typing import NamedTuple, Sequence, Union

from .catalog import CountingSequence
from .errors import RangeError

__all__ = [
    "AuditReport",
    "audit",
    "audit_sequence",
    "reduced_values",
    "product_closure_check",
    "perturbation_check",
]

Rational = Union[int, Fraction]


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


def reduced_values(A: CountingSequence, N: int) -> list[Fraction]:
    """The audited sequence u_0..u_N: reduced, on the reindexed support."""
    p = A.period
    a = A.values(p * N)
    if A.labeling == "labeled":
        return [Fraction(a[n], factorial(n)) for n in range(0, p * N + 1, p)]
    return [Fraction(x) for x in a[::p]]


def audit_sequence(
    name: str, values: Sequence[Rational], N: int, r_max: int = 3
) -> AuditReport:
    """Audit an already-reduced sequence u_0..u_N (exact rationals) in the
    reduced form, on P_k = u_k·L."""
    _check_range(N, r_max)
    if len(values) < N + 1:
        raise RangeError(f"need values up to index {N}, got {len(values)}")
    u = [Fraction(v) for v in values[: N + 1]]
    L = lcm(*(x.denominator for x in u))
    return _report(name, N, r_max, [x.numerator * (L // x.denominator) for x in u], 0, L)


def _check_range(N: int, r_max: int) -> None:
    if N < 10:
        raise RangeError(f"--N {N}: audit needs N >= 10 to have a meaningful tail")
    if r_max < 1:
        raise RangeError("r_max must be >= 1")


def _report(name: str, N: int, r_max: int, P: Sequence[int], p: int, L: int) -> AuditReport:
    """The audit of the integers P_0..P_N (see the module docstring): with
    p >= 1 the labeled form, P_k = a_{pk} (L = 1), on u_k = P_k/(pk)! when
    those are all integers; with p = 0 an unlabeled class (L = 1) or the
    reduced form, P_k = u_k·L."""
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
    # the module docstring), with P_k = ±o_k·2^{t_k}.
    t = [_twos(x) for x in P]
    signed_odd = [x >> e for x, e in zip(P, t)]
    o = [abs(x) for x in signed_odd]
    t_c = _twos(L)
    o_c = L >> t_c  # the scale c = L of the reduced form, as o_c·2^{t_c}
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
            conv_lists[r].append(_fraction(s, o_c * signed_odd[n - r], t_c + t[n - r]))
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
    the stride p of its period; a labeled class weighs them by C(pn,pk).

    Every class takes this one route; the reduced form is kept for the
    callers of :func:`audit_sequence` (see the module docstring).
    """
    _check_range(N, r_max)
    p = A.period
    name = A.name if p == 1 else f"{A.name}[/{p}]"
    return _report(name, N, r_max, A.values(p * N)[::p], p if A.labeling == "labeled" else 0, 1)


def product_closure_check(
    A: CountingSequence, B: CountingSequence, N: int, r_max: int = 3
) -> AuditReport:
    """Audit the termwise product of two reduced sequences.

    Closure under termwise products is a theorem for nonnegative gargantuan
    sequences; this check shows the finite-range evidence carries over.
    """
    ua, ub = reduced_values(A, N), reduced_values(B, N)
    prod = [x * y for x, y in zip(ua, ub)]
    return audit_sequence(f"{A.name} * {B.name}", prod, N, r_max)


def perturbation_check(
    A: Union[CountingSequence, Sequence[Rational]],
    B: Sequence[Rational],
    K: Rational,
    N: int,
    r_max: int = 3,
) -> AuditReport:
    """Audit c_n = K·a_n + b_n for a gargantuan-looking base a and small b.

    ``A`` is the base (a catalog class, audited reduced, or an explicit
    sequence); ``B`` is the explicit perturbation, indexed like the base.
    The stability theorem needs b_n/a_n -> 0 and K >= 1; the report carries
    the observed b/a witness at the tail endpoints as a note.  The motivating
    instance: unlabeled tournament counts equal t_n/n! plus an exponentially
    smaller symmetry correction, so their audit inherits the labeled one's.
    """
    a = reduced_values(A, N) if isinstance(A, CountingSequence) else [
        Fraction(v) for v in A[: N + 1]
    ]
    if len(a) < N + 1:
        raise RangeError(f"base sequence shorter than N={N}")
    if len(B) < N + 1:
        raise RangeError(f"perturbation shorter than N={N}")
    b = [Fraction(v) for v in B[: N + 1]]
    K = Fraction(K)
    c = [K * x + y for x, y in zip(a, b)]

    tail_start = N - N // 4 + 1
    note_parts = []
    if a[tail_start] != 0 and a[N] != 0:
        w0, w1 = abs(b[tail_start] / a[tail_start]), abs(b[N] / a[N])
        note_parts.append(
            f"|b/a| witness: {w0} at n={tail_start} -> {w1} at n={N}"
            + ("" if w1 <= w0 else " (not shrinking)")
        )
    base_name = A.name if isinstance(A, CountingSequence) else "base"
    report = audit_sequence(f"{K}*{base_name} + perturbation", c, N, r_max)
    return replace(report, notes=tuple(note_parts))

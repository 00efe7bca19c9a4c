"""Laplace-transform kernels and adaptive quadrature for integral representations.

Three completely monotonic objects admit representations f(z) =
integral_0^inf kernel(t) e^(-zt) dt (up to documented prefactors):

    kernel_1f2(k, .)    ->  H_k(z)                  (no prefactor)
    kernel_bessel(k, .) ->  H_k(z)                  (prefactor z^-(k+1))
    h_kernel            ->  h(z) - 1, and with an extra u^n weight,
                            (-1)^n h^(n)(z)

The transform engine integrates over [0, T] with adaptive Gauss-Legendre
panels and bounds the discarded tail with the exact closed form of
integral_T^inf t^w e^(2 sqrt t - z t) dt, which dominates every kernel here
termwise.  Only that tail is bounded: the error of each panel is the
heuristic estimate |q32 - q16| from an embedded 16/32-point pair, not a
bound.  Results carry their error budget (estimate plus tail bound); a
tolerance the budget cannot reach raises NumericFailure rather than
returning a guess.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, cos, factorial, log2, pi
from typing import Optional

from mpmath import mp

from .laurent import h_derivative, h_function, remainder_hk
from .specfun import (
    DEFAULT_PRECISION,
    NumericFailure,
    _GUARD_BITS,
    _SERIES_LIMIT,
    _dyadic,
    _series_1f2,
    bessel_i,
    hyp1f2,
    to_mpf,
)

_NODE_BUDGET = 100000

KERNEL_KINDS = ("f12", "bessel", "h", "const")

REPRESENTATIONS = ("f12", "bessel", "h", "h_deriv")

DEFAULT_REL_TOL = {"f12": "1e-10", "bessel": "1e-10", "h": "1e-8", "h_deriv": "1e-8"}


def kernel_1f2(k, t, prec=DEFAULT_PRECISION):
    """sum_{m>k} t^(m-1) / (m! (m-1)!), evaluated through the 1F2 engine.

    Equals t^k/(k! (k+1)!) 1F2(1; k+1, k+2; t); the series indexing starts
    at m = k+1 >= 1, so the would-be 1/Gamma(0) term never arises.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    with prec.workdps():
        t = to_mpf(t)
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        front = t ** k / (mp.factorial(k) * mp.factorial(k + 1))
        return front * hyp1f2(k + 1, k + 2, t, prec)


def kernel_bessel(k, t, prec=DEFAULT_PRECISION):
    """sum_j t^j / (j! (j+k+2)!), that is 1F2(1; 1, k+3; t) / (k+2)!.

    Equals I_{k+2}(2 sqrt t) / t^((k+2)/2) for t > 0; kernel-identities
    checks that against mpmath's besseli, which shares no code with it.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    with prec.workdps():
        t = to_mpf(t)
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        term = 1 / mp.factorial(k + 2)
        return _series_1f2(term, t, 1, k + 3, prec, "kernel_bessel", k=k, t=t)


def _bernoulli_plus(j):
    """Bernoulli number with the B_1 = +1/2 convention at the ambient precision."""
    return (-1) ** j * mp.bernoulli(j)


def u_ratio(u, prec=DEFAULT_PRECISION):
    """u / (1 - e^-u), continued by its value 1 at u = 0.

    Below u = 1/4 the Bernoulli series sum_j B_j^+ u^j / j! (radius 2 pi)
    replaces the directly cancelling quotient; above, expm1 keeps the
    denominator exact.
    """
    with prec.workdps():
        u = to_mpf(u)
        if u < 0:
            raise ValueError(f"u must be nonnegative, got {u}")
        if u >= mp.mpf(1) / 4:
            return u / (-mp.expm1(-u))
        total = mp.mpf(0)
        upow = mp.mpf(1)
        stop = prec.series_stop
        for j in range(_SERIES_LIMIT):
            total += _bernoulli_plus(j) / mp.factorial(j) * upow
            # |B_j|/j! <= 4 (2 pi)^-j, so the remaining tail is < 6 (u/6)^(j+1)
            if 6 * (u / 6) ** (j + 1) < stop:
                return total
            upow *= u
        raise NumericFailure("u_ratio", "series budget exhausted", u=u)


@lru_cache(maxsize=None)  # u < 1/4 ends the series before j = dps
def _h_kernel_coefficient(j, wp):
    """floor(c_j 2^wp) for c_j = 1/(j!(j+1)!) - B_j^+/j!, the u^j coefficient
    of the h-kernel, from the exact Bernoulli fraction."""
    p, q = mp.bernfrac(j)
    c = Fraction(1, factorial(j + 1)) - Fraction((-1) ** j * p, q)
    c /= factorial(j)
    return (c.numerator << wp) // c.denominator


def _h_series_last(u, stop):
    """First J >= 3 with (u/6)^(J-2) < stop/4, or _SERIES_LIMIT if none is below it.

    u in (0, 1/4) and stop >= 0 are mpfs, taken as the exact dyadics
    un / 2^us and s_num / 2^s_e, so the test is exact in integers.  J is
    estimated from logarithms and settled by the exact test.
    """
    un, us = _dyadic(u)
    s_num, s_e = _dyadic(stop)

    def ends(m):  # (u/6)^m < stop/4, m = J - 2: 4 un^m 2^s_e < s_num 6^m 2^(us m)
        d = s_e + 2 - us * m
        lhs, rhs = un ** m, s_num * 6 ** m
        return lhs << d < rhs if d >= 0 else lhs < rhs << -d

    last = _SERIES_LIMIT  # a zero threshold never ends the sum
    if s_num:
        m = (log2(s_num) - s_e - 2) / (log2(un) - us - log2(6))
        last = min(last, max(1, int(m) + 1) + 2)
    while 3 < last < _SERIES_LIMIT and ends(last - 3):
        last -= 1
    while last < _SERIES_LIMIT and not ends(last - 2):
        last += 1
    return last


def _h_kernel_series(u, prec=DEFAULT_PRECISION):
    """Combined small-u series sum_{j>=3} [1/(j!(j+1)!) - B_j^+/j!] u^j, u < 1/4.

    The j = 0, 1, 2 coefficients cancel exactly, so the kernel vanishes to
    third order; leading behaviour u^3/144.  |B_j|/j! <= 4 (2 pi)^-j, so the
    tail after term J is below 6 (u/6)^(J+1), and the sum stops at the first
    J >= 3 where that is below series_stop u^3/144, that is where
    (u/6)^(J-2) < series_stop/4 (_h_series_last, exact in integers, with no
    pass over the terms).

    S = sum_{j=3}^{J} c_j u^(j-3) is then summed by Horner's rule in
    wp = mp.prec + 32 bit fixed point on integer coefficients
    floor(c_j 2^wp) (_h_kernel_coefficient), and multiplied by u^3 once.
    Each coefficient and each multiply-and-shift is low by at most one unit
    of 2^-wp, and every earlier error is scaled by u < 1/4, so S is off by
    at most 3 units.  The majorant |c_j| <= 1/(j!(j+1)!) + 4 (2 pi)^-j
    gives S >= c_3 - sum_{j>=4} |c_j| 4^(3-j) > 1/144 - 1/1000 > 2^-8, so the
    relative error of S is below 2^-(mp.prec+22), under one ulp of the
    working precision.
    """
    with prec.workdps():
        u = to_mpf(u)
        last = _h_series_last(u, prec.series_stop)
        if last == _SERIES_LIMIT:
            raise NumericFailure("h_kernel", "series budget exhausted", u=u)
        un, us = _dyadic(u)
        wp = mp.prec + _GUARD_BITS
        total = 0
        for j in range(last, 2, -1):
            total = _h_kernel_coefficient(j, wp) + (total * un >> us)
        return mp.mpf((total, -wp)) * u ** 3


def _h_kernel_direct(u, prec=DEFAULT_PRECISION):
    """I_1(2 sqrt u)/sqrt u - u/(1 - e^-u), the two pieces evaluated separately."""
    with prec.workdps():
        u = to_mpf(u)
        root = mp.sqrt(u)
        return bessel_i(1, 2 * root, prec) / root - u_ratio(u, prec)


def h_kernel(u, prec=DEFAULT_PRECISION):
    """The Laplace density of h - 1: I_1(2 sqrt u)/sqrt u - u/(1 - e^-u).

    Positive for u > 0 and ~ u^3/144 near zero; the two direct pieces agree
    to 1 + u/2 + u^2/12 there, so the crossover at u = 1/4 switches to the
    combined series before the cancellation can bite.
    """
    with prec.workdps():
        u = to_mpf(u)
        if u < 0:
            raise ValueError(f"u must be nonnegative, got {u}")
        if u == 0:
            return mp.mpf(0)
        if u < mp.mpf(1) / 4:
            return _h_kernel_series(u, prec)
        return _h_kernel_direct(u, prec)


@dataclass(frozen=True)
class KernelSpec:
    """A transform kernel: base kind, series index k, and monomial weight.

    kinds: "f12" and "bessel" take the remainder order k; "h" is the
    h-kernel; "const" is the constant 1 (calibration mode).  weight >= 0
    multiplies the kernel by t^weight, which covers both the t^n
    calibration transforms and the u^n-weighted h-kernel.
    """

    kind: str
    k: int = 0
    weight: int = 0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"k must be a nonnegative integer, got {self.k!r}")
        if not isinstance(self.weight, int) or self.weight < 0:
            raise ValueError(
                f"weight must be a nonnegative integer, got {self.weight!r}"
            )

    def base(self, t, prec=DEFAULT_PRECISION):
        if self.kind == "f12":
            return kernel_1f2(self.k, t, prec)
        if self.kind == "bessel":
            return kernel_bessel(self.k, t, prec)
        if self.kind == "h":
            return h_kernel(t, prec)
        return mp.mpf(1)

    def evaluate(self, t, prec=DEFAULT_PRECISION):
        """kernel(t) t^weight at the working precision."""
        with prec.workdps():
            t = to_mpf(t)
            value = self.base(t, prec)
            if self.weight:
                value *= t ** self.weight
            return value


@dataclass(frozen=True)
class QuadratureResult:
    """A transform value with its error budget: panel estimates plus tail bound."""

    value: object
    error_estimate: object
    truncation_point: object
    tail_bound: object
    nodes: int


@lru_cache(maxsize=None)
def _gauss_legendre(order, dps):
    """Gauss-Legendre nodes and weights on [-1, 1] at dps digits.

    Roots of P_order by Newton from the Chebyshev approximation; order must
    be even so the symmetric pairs cover all roots.
    """
    if order % 2:
        raise ValueError(f"order must be even, got {order!r}")
    with mp.workdps(dps + 10):
        pairs = []
        for i in range(1, order // 2 + 1):
            x = mp.mpf(cos(pi * (i - 0.25) / (order + 0.5)))
            dp = mp.mpf(1)
            for _ in range(60):
                p0, p1 = mp.mpf(1), x
                for m in range(2, order + 1):
                    p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
                dp = order * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mp.mpf(10) ** (-(dps + 5)):
                    break
            w = 2 / ((1 - x * x) * dp * dp)
            pairs.append((x, w))
            pairs.append((-x, w))
        return tuple(pairs)


def _tail_bound(weight, T, z):
    """Exact integral_T^inf t^w e^(2 sqrt t - z t) dt at the ambient precision.

    Completing the square after t = s^2 reduces it to upper incomplete
    gamma functions; every transform kernel here is dominated by
    t^w e^(2 sqrt t) termwise, so this bounds the discarded tail.
    """
    a = 1 / z
    v0 = mp.sqrt(T) - a
    if v0 <= 0:
        return mp.inf
    x = z * v0 * v0
    n = 2 * weight + 1
    total = mp.mpf(0)
    for j in range(n + 1):
        g = mp.gammainc(mp.mpf(j + 1) / 2, x) / (2 * z ** (mp.mpf(j + 1) / 2))
        total += comb(n, j) * a ** (n - j) * g
    return 2 * mp.exp(a) * total


def _check_rel_tol(rel_tol, spent, prec):
    """Reject rel_tol outside (0, 1), or one whose quadrature share spent
    is below 10^-(digits-10); messages name rel_tol as the caller gave it."""
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    if spent < mp.mpf(10) ** (-(prec.digits - 10)):
        raise ValueError(
            f"rel_tol {rel_tol} too tight for {prec.digits} digits of working precision"
        )


def laplace_transform(kernel, z, rel_tol=None, prec=DEFAULT_PRECISION):
    """integral_0^inf kernel(t) t^weight e^(-zt) dt with an error budget.

    Adaptive Gauss-Legendre over [0, T]: per-panel error estimated (not
    bounded) as the gap of the embedded 16/32 pair, worst panel bisected
    until the estimates sum to a quarter of the tolerance; T grows until
    the closed-form tail bound is a tenth of it.  Raises NumericFailure once
    the node budget is exhausted before the budget meets the tolerance.
    """
    if not isinstance(kernel, KernelSpec):
        raise ValueError(f"kernel must be a KernelSpec, got {kernel!r}")
    with prec.workdps():
        z = to_mpf(z)
        if z <= 0:
            raise ValueError(f"z must be positive, got {z}")
        rel_tol = to_mpf(rel_tol) if rel_tol is not None else mp.mpf("1e-12")
        _check_rel_tol(rel_tol, rel_tol, prec)

        evals = [0]

        def f(t):
            evals[0] += 1
            return kernel.evaluate(t, prec) * mp.exp(-z * t)

        wdps = prec.working_dps
        rule_lo = _gauss_legendre(16, wdps)
        rule_hi = _gauss_legendre(32, wdps)

        def panel(a, b):
            mid = (a + b) / 2
            half = (b - a) / 2
            q_lo = half * mp.fsum(w * f(mid + half * x) for x, w in rule_lo)
            q_hi = half * mp.fsum(w * f(mid + half * x) for x, w in rule_hi)
            return q_hi, abs(q_hi - q_lo)

        a_shift = 1 / z
        T = max(mp.mpf(16), (a_shift + mp.mpf("1.5")) ** 2)
        edges = [mp.mpf(0)]
        step = min(1 / (2 * z), T / 8)
        x = step
        while x < T:
            edges.append(x)
            x *= 2
        if edges[-1] != T:
            edges.append(T)

        heap = []
        counter = 0
        total = mp.mpf(0)
        err_sum = mp.mpf(0)
        for a, b in zip(edges, edges[1:]):
            q, e = panel(a, b)
            heapq.heappush(heap, (-e, counter, a, b, q))
            counter += 1
            total += q
            err_sum += e

        tail = _tail_bound(kernel.weight, T, z)
        extensions = 0
        while tail > rel_tol * abs(total) / 10:
            new_T = T * mp.mpf("1.5")
            q, e = panel(T, new_T)
            heapq.heappush(heap, (-e, counter, T, new_T, q))
            counter += 1
            total += q
            err_sum += e
            T = new_T
            tail = _tail_bound(kernel.weight, T, z)
            extensions += 1
            if extensions > 80:
                raise NumericFailure(
                    "laplace_transform", "tail bound failed to contract", z=z, T=T
                )

        while err_sum > rel_tol * abs(total) / 4:
            if evals[0] > _NODE_BUDGET:
                raise NumericFailure(
                    "laplace_transform",
                    "node budget exhausted before certification",
                    z=z,
                    nodes=evals[0],
                )
            neg_e, _, a, b, q = heapq.heappop(heap)
            mid = (a + b) / 2
            q1, e1 = panel(a, mid)
            q2, e2 = panel(mid, b)
            total += q1 + q2 - q
            err_sum += e1 + e2 - (-neg_e)
            heapq.heappush(heap, (-e1, counter, a, mid, q1))
            counter += 1
            heapq.heappush(heap, (-e2, counter, mid, b, q2))
            counter += 1

        return QuadratureResult(
            value=total,
            error_estimate=err_sum + tail,
            truncation_point=T,
            tail_bound=tail,
            nodes=evals[0],
        )


@dataclass(frozen=True)
class RepresentationCheck:
    """Closed-form route vs quadrature route for one integral representation."""

    rep: str
    index: int
    z: object
    lhs: object
    rhs: object
    rel_err: object
    tol: object
    passed: bool
    quadrature: QuadratureResult


def verify_representation(rep, index=0, *, z, rel_tol=None, prec=DEFAULT_PRECISION):
    """Check one integral representation at a point z > 0.

    rep "f12":     H_k(z)          = transform of kernel_1f2(k, .)
    rep "bessel":  H_k(z)          = z^-(k+1) [1/(k+1)! + transform of kernel_bessel(k, .)]
    rep "h":       h(z)            = 1 + transform of h_kernel
    rep "h_deriv": (-1)^n h^(n)(z) = transform of h_kernel weighted by u^n
                                     (index is n >= 1)

    The additive 1/(k+1)! in the Bessel route is the m = 0 term of the
    partial-fraction expansion, which transforms to a constant rather than
    to a kernel contribution (termwise check: the transform of the kernel
    alone is z^(k+1) H_{k+1}(z), and H_k - H_{k+1} = z^-(k+1)/(k+1)!).

    The two sides come from disjoint code paths (series/recurrence closed
    forms vs quadrature); passing means their relative gap is within tol.
    """
    if rep not in REPRESENTATIONS:
        raise ValueError(f"rep must be one of {REPRESENTATIONS}, got {rep!r}")
    if not isinstance(index, int) or index < 0:
        raise ValueError(f"index must be a nonnegative integer, got {index!r}")
    if rep == "h_deriv" and index < 1:
        raise ValueError("h_deriv needs a derivative order index >= 1")
    with prec.workdps():
        z = to_mpf(z)
        if z <= 0:
            raise ValueError(f"z must be positive, got {z}")
        tol = to_mpf(rel_tol) if rel_tol is not None else mp.mpf(DEFAULT_REL_TOL[rep])
        inner = tol / 2
        _check_rel_tol(tol, inner, prec)
        if rep == "f12":
            lhs = remainder_hk(index, z, prec)
            quad = laplace_transform(KernelSpec("f12", k=index), z, inner, prec)
            rhs = quad.value
        elif rep == "bessel":
            lhs = remainder_hk(index, z, prec)
            quad = laplace_transform(KernelSpec("bessel", k=index), z, inner, prec)
            rhs = z ** (-(index + 1)) * (1 / mp.factorial(index + 1) + quad.value)
        elif rep == "h":
            lhs = h_function(z, prec)
            quad = laplace_transform(KernelSpec("h"), z, inner, prec)
            rhs = 1 + quad.value
        else:
            lhs = (-1) ** index * h_derivative(index, z, prec)
            quad = laplace_transform(KernelSpec("h", weight=index), z, inner, prec)
            rhs = quad.value
        rel_err = abs(lhs - rhs) / abs(lhs)
        return RepresentationCheck(
            rep=rep,
            index=index,
            z=z,
            lhs=lhs,
            rhs=rhs,
            rel_err=rel_err,
            tol=tol,
            passed=bool(rel_err <= tol),
            quadrature=quad,
        )

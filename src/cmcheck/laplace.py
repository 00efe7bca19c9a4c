"""Laplace-transform kernels and adaptive quadrature for integral representations.

Three completely monotonic objects admit representations f(z) =
integral_0^inf kernel(t) e^(-zt) dt (up to documented prefactors):

    kernel_1f2(k, .)    ->  H_k(z)                  (no prefactor)
    kernel_bessel(k, .) ->  H_k(z)                  (prefactor z^-(k+1))
    h_kernel            ->  h(z) - 1, and with an extra u^n weight,
                            (-1)^n h^(n)(z)

Each kernel is summed by the 1F2 engine of specfun; below u = 1/4 h_kernel
adds to it the Bernoulli tail of u/(1 - e^-u), so no digits cancel there.
The engine takes a sequence of arguments, and KernelSpec.evaluate_many
evaluates every node of a panel, or every edge of the first cut, in one
pass (two for h, one per side of u = 1/4).  Each value, and the error bound
of each argument, is the one a call per argument gives.

The transform engine integrates over [0, T] with Gauss-Legendre panels and
bounds the discarded tail with the exact closed form of
integral_T^inf t^w e^(2 sqrt t - z t) dt, which dominates every kernel here
termwise.  Each panel's discretisation error is bounded too, by the
Gauss-Legendre bound over a Bernstein ellipse (Trefethen, Approximation
Theory and Approximation Practice, Thm 19.3), with the integrand's maximum
on the ellipse bounded through the kernel's Taylor coefficients.  Results
carry that error bound (panel bounds plus tail bound); a tolerance it
cannot reach raises NumericFailure rather than returning a guess.  The
bound does not count the kernels' own relative error or rounding.  The
nodes are evaluated at d = max(30, ceil(-log10 rel_tol) + 10) digits,
capped at the digits asked for (_node_precision), so the kernels stop at
10^-(d+5) <= 10^-15 rel_tol relative and round at d + 15 digits: both at
least 15 orders of magnitude below the tolerance, which _check_rel_tol
keeps at or above 10^-(digits-10), so the cap never binds.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, cos, pi
from typing import Optional

from mpmath import mp

from .laurent import h_derivative, h_function, remainder_hk
from .specfun import (
    DEFAULT_PRECISION,
    NumericFailure,
    WorkingPrecision,
    _GUARD_BITS,
    _SERIES_LIMIT,
    _dyadic,
    _em_coefficient,
    _series_1f2,
    _series_sums,
    to_mpf,
)

_NODE_BUDGET = 100000

# Gauss-Legendre orders a panel may use; a panel no order certifies is bisected
_ORDERS = (2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 64)

# Bernstein-ellipse parameters rho tried for a panel's bound
_RHOS = tuple(2**j for j in range(1, 10))

# a bound needs few digits; its majorants are computed at this precision and
# rounded up by the factor _BOUND_SLACK, whose 1e-30 dwarfs their truncation
# and rounding; it and rho + 1/rho for each rho (_RHO_SUMS) are formed once
_BOUND_PRECISION = WorkingPrecision(30)
with _BOUND_PRECISION.workdps():
    _BOUND_SLACK = 1 + mp.mpf("1e-30")
    _RHO_SUMS = tuple(rho + mp.mpf(1) / rho for rho in _RHOS)

KERNEL_KINDS = ("f12", "bessel", "h", "const")

REPRESENTATIONS = ("f12", "bessel", "h", "h_deriv")

_EXHAUSTED = "series budget exhausted"

DEFAULT_REL_TOL = {"f12": "1e-10", "bessel": "1e-10", "h": "1e-8", "h_deriv": "1e-8"}


def _nonnegative(xs, name):
    """xs as mpfs at the current precision; ValueError at the first negative."""
    xs = [to_mpf(x) for x in xs]
    for x in xs:
        if x < 0:
            raise ValueError(f"{name} must be nonnegative, got {x}")
    return xs


def kernel_1f2(k, t, prec=DEFAULT_PRECISION):
    """sum_{m>k} t^(m-1) / (m! (m-1)!), evaluated through the 1F2 engine.

    Equals t^k/(k! (k+1)!) 1F2(1; k+1, k+2; t); the series indexing starts
    at m = k+1 >= 1, so the would-be 1/Gamma(0) term never arises.
    """
    return _kernel_1f2_many(k, [t], prec)[0]


def _kernel_1f2_many(k, ts, prec):
    """[kernel_1f2(k, t) for t in ts], the series summed in one pass; a
    failure is hyp1f2's, for the first t that fails."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    with prec.workdps():
        ts = _nonnegative(ts, "t")
        fact = mp.factorial(k) * mp.factorial(k + 1)
        named = [{"b1": k + 1, "b2": k + 2, "t": t} for t in ts]
        ones = [mp.mpf(1)] * len(ts)
        sums = _series_1f2(ones, ts, k + 1, k + 2, prec, "hyp1f2", named)
        return [t ** k / fact * value for t, value in zip(ts, sums)]


def kernel_bessel(k, t, prec=DEFAULT_PRECISION):
    """sum_j t^j / (j! (j+k+2)!), that is 1F2(1; 1, k+3; t) / (k+2)!.

    Equals I_{k+2}(2 sqrt t) / t^((k+2)/2) for t > 0; kernel-identities
    checks that against mpmath's besseli, which shares no code with it.
    """
    return _kernel_bessel_many(k, [t], prec)[0]


def _kernel_bessel_many(k, ts, prec):
    """[kernel_bessel(k, t) for t in ts], the series summed in one pass."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    with prec.workdps():
        ts = _nonnegative(ts, "t")
        term = 1 / mp.factorial(k + 2)
        named = [{"k": k, "t": t} for t in ts]
        return _series_1f2([term] * len(ts), ts, 1, k + 3, prec, "kernel_bessel", named)


def u_ratio(u, prec=DEFAULT_PRECISION):
    """u / (1 - e^-u), continued by its value 1 at u = 0; expm1 keeps the
    denominator exact for every u > 0."""
    with prec.workdps():
        u = to_mpf(u)
        if u < 0:
            raise ValueError(f"u must be nonnegative, got {u}")
        if u == 0:
            return mp.mpf(1)
        return u / (-mp.expm1(-u))


def _bernoulli_tail(u, prec):
    """T(u) = sum_{v>=2} B_2v/(2v)! u^(2v-4) for an mpf u in (0, 1/4).

    Summed in fixed point on the exact pairs of _em_coefficient, with u =
    un / 2^us and wp = mp.prec + 32 + 2 bitlen(_SERIES_LIMIT) bits.  The
    terms alternate and shrink by at least u^2/(4 pi^2) < 1/600, so the sum
    stops after the first term below series_stop of it, the omitted tail
    being smaller still.  The power u^(2v-4) is floored once per term, and
    so is its product with the coefficient; that costs each term at most
    1 + 1/600 units of 2^-wp, against |T| > 1/722.  Over at most
    _SERIES_LIMIT terms T is thus off by a relative 2^-(mp.prec+40) at
    most.  A zero threshold never stops the sum; it raises once the power
    underflows to zero.
    """
    un, us = _dyadic(u)
    u2, shift = un * un, 2 * us
    s_num, s_e = _dyadic(prec.series_stop)
    wp = mp.prec + _GUARD_BITS + 2 * _SERIES_LIMIT.bit_length()
    power, total = 1 << wp, 0
    for v in range(2, _SERIES_LIMIT):
        p, q = _em_coefficient(v)
        term = power * p // q
        total += term
        if abs(term) << s_e < s_num * abs(total):
            return mp.mpf((total, -wp))
        if not power:
            break
        power = power * u2 >> shift
    raise NumericFailure("h_kernel", _EXHAUSTED, u=u)


def h_kernel(u, prec=DEFAULT_PRECISION):
    """The Laplace density of h - 1: I_1(2 sqrt u)/sqrt u - u/(1 - e^-u).

    Positive for u > 0 and ~ u^3/144 near zero.  From u = 1/4 on it is
    kernel_1f2(0, u) - u_ratio(u), whose first piece is
    sum_j u^j/(j!(j+1)!) = I_1(2 sqrt u)/sqrt u.  Below, the two pieces agree
    to 1 + u/2 + u^2/12, and the j = 0, 1, 2 terms are cancelled exactly:

        h_kernel(u) = sum_{j>=3} u^j/(j!(j+1)!) - u^4 T(u),

    the first sum through the 1F2 engine (u^3/144 1F2(1; 4, 5; u)) and T the
    Bernoulli tail of u/(1 - e^-u) (_bernoulli_tail).  T is negative, so the
    subtraction adds two positive pieces and cancels nothing.
    """
    return _h_kernel_many([u], prec)[0]


def _h_kernel_many(us, prec, pieces=False):
    """[h_kernel(u) for u in us]: one 1F2 pass over the u >= 1/4 and one over
    the 0 < u < 1/4; with pieces, the pairs (a, b) of h_kernel(u) = a - b.
    A failure is the one h_kernel raises for the first u that fails:
    hyp1f2's from u = 1/4 on, h_kernel's below."""
    with prec.workdps():
        us = _nonnegative(us, "u")
        quarter = mp.mpf(1) / 4
        high = [i for i, u in enumerate(us) if u >= quarter]
        low = [i for i, u in enumerate(us) if 0 < u < quarter]
        out = [(mp.mpf(0), 0)] * len(us)
        failures = []  # (position, NumericFailure), the first of each branch
        for i, pair in zip(high, _series_sums([us[i] for i in high], 1, 2, prec)):
            u = us[i]
            if pair is None:
                failures.append(
                    (i, NumericFailure("hyp1f2", _EXHAUSTED, b1=1, b2=2, t=u))
                )
                break
            out[i] = mp.mpf(pair), u_ratio(u, prec)
        for i, pair in zip(low, _series_sums([us[i] for i in low], 4, 5, prec)):
            u = us[i]
            try:
                if pair is None:
                    raise NumericFailure("h_kernel", _EXHAUSTED, u=u)
                tail = _bernoulli_tail(u, prec)
            except NumericFailure as exc:
                failures.append((i, exc))
                break
            out[i] = u**3 / 144 * mp.mpf(pair), u**4 * tail
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return out if pieces else [a - b for a, b in out]


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

    def _bases(self, ts, prec):
        """[kernel(t) for t in ts] from one pass of the 1F2 engine (two for h)."""
        if self.kind == "f12":
            return _kernel_1f2_many(self.k, ts, prec)
        if self.kind == "bessel":
            return _kernel_bessel_many(self.k, ts, prec)
        if self.kind == "h":
            return _h_kernel_many(ts, prec)
        return [mp.mpf(1)] * len(ts)

    def evaluate_many(self, ts, prec=DEFAULT_PRECISION):
        """[kernel(t) t^weight for t in ts] at the working precision; each
        value equals evaluate(t)'s, and a failure is the first evaluate
        would raise."""
        with prec.workdps():
            ts = [to_mpf(t) for t in ts]
            values = self._bases(ts, prec)
            if self.weight:
                values = [value * t**self.weight for value, t in zip(values, ts)]
            return values

    def evaluate(self, t, prec=DEFAULT_PRECISION):
        """kernel(t) t^weight at the working precision."""
        return self.evaluate_many([t], prec)[0]

    def majorant(self, radius, low, prec=DEFAULT_PRECISION):
        """An upper bound on |kernel(w)| over complex w with |w| <= radius and
        Re w >= low, or inf where the kernel may have a pole there.

        f12, bessel and const have nonnegative Taylor coefficients, so
        kernel(radius) bounds them.  The h-kernel is the entire
        sum_j w^j/(j!(j+1)!) = kernel_1f2(0, w), bounded the same way, minus
        w/(1 - e^-w), which has poles at 2 pi i m, m != 0.  For low > 0,
        |1 - e^-w| >= 1 - e^-low bounds the quotient; for radius < 2 pi the
        series gives |h(w)| <= sum_{j>=3} [1/(j!(j+1)!) + 4 (2 pi)^-j] R^j,
        and the first part of that is at most R^3/(144 (1 - R/20)), its terms
        falling by R/20 or more.  The smaller applicable bound is returned.
        """
        if self.kind != "h":
            return self._bases([radius], prec)[0]
        with prec.workdps():
            best = mp.inf
            if low > 0:
                best = kernel_1f2(0, radius, prec) + radius / (-mp.expm1(-low))
            x = radius / (2 * mp.pi)
            if x < 1:
                series = radius**3 / (144 * (1 - radius / 20)) + 4 * x**3 / (1 - x)
                best = min(best, series)
            return best


@dataclass(frozen=True)
class QuadratureResult:
    """A transform value with a bound on its error.

    error_bound is the sum of the panels' Gauss-Legendre bounds plus
    tail_bound, the closed-form bound on the integral beyond
    truncation_point.  nodes counts integrand evaluations at the working
    precision; bound_evaluations counts the majorants and lower estimates,
    computed at _BOUND_PRECISION, that chose and certified the panels.
    """

    value: object
    error_bound: object
    truncation_point: object
    tail_bound: object
    nodes: int
    bound_evaluations: int


def _ellipse_majorant(kernel, z, c, semi):
    """An upper bound on |kernel(w) w^weight e^(-zw)| over the Bernstein
    ellipse E_rho of a panel [a, b], 0 <= a < b, given its centre c and
    semi-major axis semi.

    E_rho has centre c = (a+b)/2 and semi-major axis A = (b-a)/4 (rho + 1/rho),
    so each of its points w has |w| <= c + A and Re w >= c - A; the kernel's
    majorant takes it from there, |w^weight| <= (c+A)^weight and
    |e^(-zw)| <= e^(-z(c-A)).
    """
    with _BOUND_PRECISION.workdps():
        radius, low = c + semi, c - semi
        m = kernel.majorant(radius, low, _BOUND_PRECISION)
        m *= radius**kernel.weight * mp.exp(-z * low)
        return m * _BOUND_SLACK


def _gauss_bound(half, majorant, rho, order):
    """Error bound of order-point Gauss-Legendre on a panel of half-width half,
    for an integrand analytic inside E_rho and bounded there by majorant.

    Trefethen (Approximation Theory and Approximation Practice, Thm 19.3;
    SIAM Rev. 50 (2008), Thm 4.5) bounds the (n+1)-point rule on [-1, 1] by
    64 M / (15 (rho^2 - 1) rho^(2n)).  With order = n + 1 points that is
    64 M / (15 (rho^2 - 1) rho^(2 order - 2)); the panel scales it by half.
    """
    return half * 64 * majorant / (15 * (rho**2 - 1) * rho ** (2 * order - 2))


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


def _gauss_panel(kernel, z, a, b, order, prec):
    """order-point Gauss-Legendre for kernel(t) t^weight e^(-zt) on [a, b],
    the kernel at every node from one evaluate_many."""
    with prec.workdps():
        mid, half = (a + b) / 2, (b - a) / 2
        rule = _gauss_legendre(order, prec.working_dps)
        ts = [mid + half * x for x, _ in rule]
        values = kernel.evaluate_many(ts, prec)
        total = mp.fsum(
            w * value * mp.exp(-z * t) for (_, w), value, t in zip(rule, values, ts)
        )
        return half * total


def _tail_bound(weight, T, z):
    """An upper bound on integral_T^inf t^w e^(2 sqrt t - z t) dt at the
    ambient precision.

    Every transform kernel here is dominated by t^w e^(2 sqrt t) termwise,
    so this bounds the discarded tail.  With t = v^2, v = a + y, a = 1/z,
    the integral is 2 e^a sum_j C(n,j) a^(n-j) Gamma(s_j, x) / (2 z^s_j),
    n = 2w + 1, s_j = (j+1)/2 and x = z (sqrt T - a)^2, a sum of positive
    terms.  Each Gamma(s, x) is replaced by an upper bound with one shared
    e^-x where one applies: x^(s-1) e^-x for s <= 1 (DLMF 8.10.1), and
    x^(s-1) e^-x / (1 - (s-1)/x) for s > 1 and x > s - 1, since
    (u/x)^(s-1) <= e^((s-1)(u-x)/x) for u >= x.  For s > 1 and x <= s - 1
    it is mpmath's gammainc.
    """
    a = 1 / z
    v0 = mp.sqrt(T) - a
    if v0 <= 0:
        return mp.inf
    x = z * v0 * v0
    n = 2 * weight + 1
    root_x, root_z = mp.sqrt(x), mp.sqrt(z)
    decay = mp.exp(-x)
    power = decay / root_x  # x^(s-1) e^-x at s = 1/2
    total = mp.mpf(0)
    for j in range(n + 1):
        s = mp.mpf(j + 1) / 2
        if s <= 1:
            g = power
        elif x > s - 1:
            g = power / (1 - (s - 1) / x)
        else:
            g = mp.gammainc(s, x)
        total += comb(n, j) * a ** (n - j) * g / (2 * root_z ** (j + 1))
        power *= root_x
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


def _node_precision(prec, rel_tol):
    """prec's policy at max(30, ceil(-log10 rel_tol) + 10) digits, at most
    prec.digits: the precision of the quadrature nodes."""
    digits = max(30, int(mp.ceil(-mp.log10(rel_tol))) + 10)
    return replace(prec, digits=min(digits, prec.digits))


def laplace_transform(kernel, z, rel_tol=None, prec=DEFAULT_PRECISION):
    """integral_0^inf kernel(t) t^weight e^(-zt) dt with a bound on its error.

    [0, T] is cut at 1/(2z) (at most T/8) times powers of two, and T grows
    by half until the closed-form tail bound is a tenth of the tolerance.
    Each panel then takes the fewest nodes in _ORDERS whose Bernstein-ellipse
    bound (_gauss_bound, the best over rho in _RHOS) meets its equal share
    of a quarter of the tolerance; a panel no order certifies is bisected,
    each half taking half the share.  The tolerance is first taken relative
    to a sum of lower estimates of the panel integrals, each the integral of
    the exponential through the integrand's values at the panel's ends (a
    lower bound where the integrand is log-concave).  Once the value is
    known both budgets are checked against it; while one fails, T is
    extended or the panel with the largest bound is redone under the same
    rule.  Raises NumericFailure once the node budget is exhausted first.
    The panels are evaluated at _node_precision and summed at prec.
    """
    if not isinstance(kernel, KernelSpec):
        raise ValueError(f"kernel must be a KernelSpec, got {kernel!r}")
    with prec.workdps():
        z = to_mpf(z)
        if z <= 0:
            raise ValueError(f"z must be positive, got {z}")
        rel_tol = to_mpf(rel_tol) if rel_tol is not None else mp.mpf("1e-12")
        _check_rel_tol(rel_tol, rel_tol, prec)
        node_prec = _node_precision(prec, rel_tol)

        nodes, bound_evaluations = 0, 0
        edge_values = {}

        def evaluate_edges(ts):
            """The integrand at each t in ts not yet evaluated, in one pass."""
            nonlocal bound_evaluations
            new = [t for t in ts if t not in edge_values]
            bound_evaluations += len(new)
            with _BOUND_PRECISION.workdps():
                values = kernel.evaluate_many(new, _BOUND_PRECISION)
                for t, value in zip(new, values):
                    edge_values[t] = value * mp.exp(-z * t)

        def lower(a, b):
            """integral over [a, b] of the exponential through the integrand's
            end values, below the integral where the integrand is log-concave."""
            evaluate_edges((a, b))
            fa, fb = edge_values[a], edge_values[b]
            with _BOUND_PRECISION.workdps():
                if fa == fb:
                    return (b - a) * fa
                if not fa or not fb:
                    return mp.mpf(0)
                return (b - a) * (fa - fb) / mp.log(fa / fb)

        def tail_at(T):
            with _BOUND_PRECISION.workdps():
                return _tail_bound(kernel.weight, T, z) * _BOUND_SLACK

        def rule(a, b, share):
            """(order, bound) with the fewest nodes whose bound on [a, b] is at
            most share, or None.  Each order takes the locally best rho in
            _RHOS; it grows with the order, so one walk serves them all.  Each
            majorant and each bound is computed once."""
            half = (b - a) / 2
            with _BOUND_PRECISION.workdps():
                c, quarter = (a + b) / 2, (b - a) / 4
            majorants, bounds = {}, {}

            def bound(j, order):
                nonlocal bound_evaluations
                key = (j, order)
                if key not in bounds:
                    if j not in majorants:
                        bound_evaluations += 1
                        with _BOUND_PRECISION.workdps():
                            semi = quarter * _RHO_SUMS[j]
                        majorants[j] = _ellipse_majorant(kernel, z, c, semi)
                    bounds[key] = _gauss_bound(half, majorants[j], _RHOS[j], order)
                return bounds[key]

            # start near the best rho for e^(-zt) alone at two nodes, 8/(z half),
            # and leave any ellipse that reaches a pole downwards
            j = int(mp.nint(mp.log(8 / (z * half), 2))) - 1
            j = min(max(j, 0), len(_RHOS) - 1)
            for order in _ORDERS:
                while j > 0 and (
                    bound(j, order) == mp.inf or bound(j - 1, order) < bound(j, order)
                ):
                    j -= 1
                while j + 1 < len(_RHOS) and bound(j + 1, order) < bound(j, order):
                    j += 1
                if bound(j, order) <= share:
                    return order, bound(j, order)
            return None

        def cover(a, b, share):
            """Panels (bound, a, b, value) over [a, b], bounds summing to <= share."""
            nonlocal nodes
            out, todo = [], [(a, b, share)]
            while todo:
                if nodes + bound_evaluations > _NODE_BUDGET:
                    raise NumericFailure(
                        "laplace_transform",
                        "node budget exhausted before certification",
                        z=z,
                        nodes=nodes,
                    )
                a, b, share = todo.pop()
                chosen = rule(a, b, share)
                if chosen is None:
                    mid = (a + b) / 2
                    todo += [(mid, b, share / 2), (a, mid, share / 2)]
                    continue
                order, bound = chosen
                nodes += order
                value = _gauss_panel(kernel, z, a, b, order, node_prec)
                out.append((bound, a, b, value))
            return out

        T = max(mp.mpf(16), (1 / z + mp.mpf("1.5")) ** 2)
        edges = [mp.mpf(0)]
        x = min(1 / (2 * z), T / 8)
        while x < T:
            edges.append(x)
            x *= 2
        if edges[-1] != T:
            edges.append(T)
        spans = list(zip(edges, edges[1:]))
        evaluate_edges(edges)
        scale = rel_tol * sum(lower(a, b) for a, b in spans)
        tail = tail_at(T)
        extensions = 0

        def extend():
            nonlocal T, tail, extensions
            extensions += 1
            if extensions > 80:
                raise NumericFailure(
                    "laplace_transform", "tail bound failed to contract", z=z, T=T
                )
            span = (T, T * mp.mpf("1.5"))
            T = span[1]
            tail = tail_at(T)
            return span

        while tail > scale / 10:
            spans.append(extend())
            scale += rel_tol * lower(*spans[-1])

        panels = []
        for a, b in spans:
            panels += cover(a, b, scale / (4 * len(spans)))
        while True:
            total = mp.fsum(p[3] for p in panels)
            err = mp.fsum(p[0] for p in panels)
            scale = rel_tol * abs(total)
            if tail > scale / 10:
                panels += cover(*extend(), scale / (4 * (len(panels) + 1)))
            elif err > scale / 4:
                worst = max(range(len(panels)), key=lambda i: panels[i][0])
                _, a, b, _ = panels.pop(worst)
                panels += cover(a, b, scale / (4 * (len(panels) + 1)))
            else:
                break

        return QuadratureResult(
            value=total,
            error_bound=err + tail,
            truncation_point=T,
            tail_bound=tail,
            nodes=nodes,
            bound_evaluations=bound_evaluations,
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

"""Laplace-transform kernels and adaptive quadrature for integral representations.

Three completely monotonic objects admit representations f(z) =
integral_0^inf kernel(t) e^(-zt) dt (up to documented prefactors):

    kernel_1f2(k, .)    ->  H_k(z)                  (no prefactor)
    kernel_bessel(k, .) ->  H_k(z)                  (prefactor z^-(k+1))
    h_kernel            ->  h(z) - 1, and with an extra u^n weight,
                            (-1)^n h^(n)(z)

Each kernel is summed by the 1F2 engine of specfun; below u = 1/4 h_kernel
adds to it the Bernoulli tail of u/(1 - e^-u), so no digits cancel there.
The engine takes a sequence of arguments, and one private evaluator per
kind (_f12_values, _bessel_values, _h_pieces) evaluates every node of a
panel, or every edge of the first cut, in one pass (two for h, one per side
of u = 1/4).  Each value, and the error bound of each argument, is the one
a call per argument gives.  KernelSpec is the one entry to them: the
quadrature reads its raw values, and each public kernel is its evaluate at
one argument.

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

Every panel, node and edge step works on raw mpf tuples through
mpmath.libmp, at the bits of the policy it runs at: the nodes and their
sum at node_prec.bits, the edge values, lower estimates and majorants at
_BOUND_PRECISION.bits, the panel bounds and the totals at prec.bits.  Each
call rounds to nearest where the mpf operator it stands for rounds, so
every value is the one mpf arithmetic in a precision context gives, and
no context is entered per panel, node or edge.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, cos, pi

from mpmath import mp
from mpmath.libmp import finf, fnone, fone, from_int, from_man_exp, ftwo, fzero
from mpmath.libmp import mpf_abs, mpf_add, mpf_div, mpf_exp, mpf_factorial, mpf_gt
from mpmath.libmp import mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg
from mpmath.libmp import mpf_nint, mpf_pi, mpf_pow_int, mpf_rdiv_int, mpf_shift
from mpmath.libmp import mpf_sub, mpf_sum, round_nearest, to_int


from .laurent import h_derivative, h_function, remainder_hk
from .specfun import (
    DEFAULT_PRECISION,
    NumericFailure,
    WorkingPrecision,
    _GUARD_BITS,
    _SERIES_LIMIT,
    _at_digits,
    _dyadic,
    _em_coefficient,
    _series_sums,
    to_mpf,
)

_NODE_BUDGET = 100000

# Gauss-Legendre orders a panel may use; a panel no order certifies is bisected
_ORDERS = (2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 64)

# Bernstein-ellipse parameters rho = 2^j tried for a panel's bound, and
# rho + 1/rho = (4^j + 1) / 2^j for each (_RHO_SUMS), as exact raw mpfs
_RHOS = tuple(from_int(2**j) for j in range(1, 10))
_RHO_SUMS = tuple(from_man_exp(4**j + 1, -j) for j in range(1, 10))

# a bound needs few digits; its majorants are computed at this precision and
# rounded up by the factor _BOUND_SLACK, whose 1e-30 dwarfs their truncation
# and rounding
_BOUND_PRECISION = WorkingPrecision(30)
with _BOUND_PRECISION.workdps():
    _BOUND_SLACK = (1 + mp.mpf("1e-30"))._mpf_

_QUARTER = from_man_exp(1, -2)
_THREE_HALVES = from_man_exp(3, -1)

KERNEL_KINDS = ("f12", "bessel", "h", "const")

REPRESENTATIONS = ("f12", "bessel", "h", "h_deriv")

_EXHAUSTED = "series budget exhausted"

# the name a kernel's argument has in its ValueError
_ARGUMENTS = {"f12": "t", "bessel": "t", "h": "u"}

# every step rounds to nearest, as mpf arithmetic does
_RN = round_nearest

DEFAULT_REL_TOL = {"f12": "1e-10", "bessel": "1e-10", "h": "1e-8", "h_deriv": "1e-8"}


def _exhausted(prec, operation, **inputs):
    """NumericFailure(operation, "series budget exhausted", **inputs), each
    raw mpf input made an mpf that prints at prec's working digits."""
    with prec.workdps():
        for name, value in inputs.items():
            if type(value) is tuple:
                inputs[name] = mp.make_mpf(value)
        return NumericFailure(operation, _EXHAUSTED, **inputs)


@lru_cache(maxsize=None)  # one entry per n and bits the kernels run at
def _factorial(n, bits):
    """mp.factorial(n) at bits, as a raw mpf."""
    return mpf_factorial(from_int(n), bits, _RN)


def _f12_values(k, ts, prec):
    """[kernel_1f2(k, t) for t in ts] for raw ts >= 0, as raw mpfs at
    prec.bits: t^k / (k! (k+1)!) times the 1F2(1; k+1, k+2; t) sum of one
    _series_sums pass.  A failure is hyp1f2's, for the first t that fails."""
    bits = prec.bits
    fact = mpf_mul(_factorial(k, bits), _factorial(k + 1, bits), bits, _RN)
    out = []
    for t, pair in zip(ts, _series_sums(ts, k + 1, k + 2, prec)):
        if pair is None:
            raise _exhausted(prec, "hyp1f2", b1=k + 1, b2=k + 2, t=t)
        power = mpf_div(mpf_pow_int(t, k, bits, _RN), fact, bits, _RN)
        out.append(mpf_mul(power, from_man_exp(*pair, bits, _RN), bits, _RN))
    return out


def _bessel_values(k, ts, prec):
    """[kernel_bessel(k, t) for t in ts] for raw ts >= 0, as raw mpfs at
    prec.bits: 1/(k+2)! times the 1F2(1; 1, k+3; t) sum of one pass."""
    bits = prec.bits
    term = mpf_rdiv_int(1, _factorial(k + 2, bits), bits, _RN)
    out = []
    for t, pair in zip(ts, _series_sums(ts, 1, k + 3, prec)):
        if pair is None:
            raise _exhausted(prec, "kernel_bessel", k=k, t=t)
        out.append(mpf_mul(term, from_man_exp(*pair, bits, _RN), bits, _RN))
    return out


def kernel_1f2(k, t, prec=DEFAULT_PRECISION):
    """sum_{m>k} t^(m-1) / (m! (m-1)!), evaluated through the 1F2 engine.

    Equals t^k/(k! (k+1)!) 1F2(1; k+1, k+2; t); the series indexing starts
    at m = k+1 >= 1, so the would-be 1/Gamma(0) term never arises.
    """
    return KernelSpec("f12", k).evaluate(t, prec)


def kernel_bessel(k, t, prec=DEFAULT_PRECISION):
    """sum_j t^j / (j! (j+k+2)!), that is 1F2(1; 1, k+3; t) / (k+2)!.

    Equals I_{k+2}(2 sqrt t) / t^((k+2)/2) for t > 0; kernel-identities
    checks that against mpmath's besseli, which shares no code with it.
    """
    return KernelSpec("bessel", k).evaluate(t, prec)


def u_ratio(u, prec=DEFAULT_PRECISION):
    """u / (1 - e^-u), continued by its value 1 at u = 0; expm1 keeps the
    denominator exact for every u > 0.  From u = (P + 2) ln 2 on, P =
    prec.bits, e^-u <= 2^-(P+2) and -expm1(-u) rounds to exactly 1, so the
    ratio is u itself, returned without forming e^-u."""
    with prec.workdps():
        u = to_mpf(u)
        if u < 0:
            raise ValueError(f"u must be nonnegative, got {u}")
        if u == 0:
            return mp.mpf(1)
        if u >= (prec.bits + 2) * mp.ln2:
            return u
        return u / (-mp.expm1(-u))


def _one_less_exp(u, bits):
    """-mp.expm1(-u) at bits, for a raw u >= 1/4, in no precision context.

    mpmath (1.3.0) forms expm1(x) at p bits by summing exp(x) and -1 at
    p + 25 bits and rounding the sum to p, unless the sum cancels 10 bits or
    more of its largest term, with magnitudes mag(y) = exp + bc, so that
    2^(mag-1) <= |y| < 2^mag; it then sums again at more bits.  Here x = -u
    rounded to p, so e^x <= e^(-1/4) and the largest magnitude is
    mag(-1) = 1, while the sum is at least 1 - e^(-1/4) (1 + 2^-(p+25)) >
    0.22 > 2^-3 in size, of magnitude -2 or more: at most 3 bits cancel, and
    the first sum stands.  So this takes mpf_exp(-u) at p + 25 bits, adds -1
    there, rounds to p and negates, the steps of -mp.expm1(-u) at p.
    """
    wide = bits + 25
    total = mpf_add(mpf_exp(mpf_neg(u, bits, _RN), wide, _RN), fnone, wide, _RN)
    return mpf_neg(total, bits, _RN)


def _bernoulli_tail(u, prec):
    """T(u) = sum_{v>=2} B_2v/(2v)! u^(2v-4) for an mpf or raw u in (0, 1/4),
    as an mpf rounded to prec.bits.

    Summed in fixed point on the exact pairs of _em_coefficient, with u =
    un / 2^us and wp = P + 32 + 2 bitlen(_SERIES_LIMIT) bits, P = prec.bits.
    The terms alternate and shrink by at least u^2/(4 pi^2) < 1/600, so the
    sum stops after the first term below series_stop of it (prec.dyadic_stop),
    the omitted tail being smaller still.  The power u^(2v-4) is floored
    once per term, and so is its product with the coefficient; that costs
    each term at most 1 + 1/600 units of 2^-wp, against |T| > 1/722.  Over
    at most _SERIES_LIMIT terms T is thus off by a relative 2^-(P+40) at
    most.  A zero threshold never stops the sum; it raises once the power
    underflows to zero.
    """
    un, us = _dyadic(u)
    u2, shift = un * un, 2 * us
    s_num, s_e = prec.dyadic_stop
    wp = prec.bits + _GUARD_BITS + 2 * _SERIES_LIMIT.bit_length()
    power, total = 1 << wp, 0
    for v in range(2, _SERIES_LIMIT):
        p, q = _em_coefficient(v)
        term = power * p // q
        total += term
        if abs(term) << s_e < s_num * abs(total):
            return mp.make_mpf(from_man_exp(total, -wp, prec.bits, _RN))
        if not power:
            break
        power = power * u2 >> shift
    raise _exhausted(prec, "h_kernel", u=u)


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
    return KernelSpec("h").evaluate(u, prec)


def _h_pieces(us, prec):
    """The raw pairs (a, b) of h_kernel(u) = a - b at prec.bits for raw
    us >= 0: one 1F2 pass over the u >= 1/4, where a = kernel_1f2(0, u) and
    b = u_ratio(u) = u / _one_less_exp(u), and one over the 0 < u < 1/4,
    where a = u^3/144 1F2(1; 4, 5; u) and b = u^4 T(u); (0, 0) at u = 0.
    A failure is the one h_kernel raises for the first u that fails:
    hyp1f2's from u = 1/4 on, h_kernel's below."""
    bits = prec.bits
    high = [i for i, u in enumerate(us) if not mpf_lt(u, _QUARTER)]
    low = [i for i, u in enumerate(us) if u[1] and mpf_lt(u, _QUARTER)]
    out = [(fzero, fzero)] * len(us)
    failures = []  # (position, NumericFailure), the first of each branch
    for i, pair in zip(high, _series_sums([us[i] for i in high], 1, 2, prec)):
        u = us[i]
        if pair is None:
            failures.append((i, _exhausted(prec, "hyp1f2", b1=1, b2=2, t=u)))
            break
        ratio = mpf_div(u, _one_less_exp(u, bits), bits, _RN)
        out[i] = from_man_exp(*pair, bits, _RN), ratio
    for i, pair in zip(low, _series_sums([us[i] for i in low], 4, 5, prec)):
        u = us[i]
        try:
            if pair is None:
                raise _exhausted(prec, "h_kernel", u=u)
            tail = _bernoulli_tail(u, prec)._mpf_
        except NumericFailure as exc:
            failures.append((i, exc))
            break
        cube = mpf_div(mpf_pow_int(u, 3, bits, _RN), from_int(144), bits, _RN)
        a = mpf_mul(cube, from_man_exp(*pair, bits, _RN), bits, _RN)
        out[i] = a, mpf_mul(mpf_pow_int(u, 4, bits, _RN), tail, bits, _RN)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return out


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
        """[kernel(t) for t in ts] as raw mpfs at prec.bits, for raw ts >= 0,
        from one pass of the 1F2 engine (two for h)."""
        if self.kind == "f12":
            return _f12_values(self.k, ts, prec)
        if self.kind == "bessel":
            return _bessel_values(self.k, ts, prec)
        if self.kind == "h":
            return [mpf_sub(a, b, prec.bits, _RN) for a, b in _h_pieces(ts, prec)]
        return [fone] * len(ts)

    def _values(self, ts, prec):
        """[kernel(t) t^weight for t in ts] as raw mpfs at prec.bits."""
        values = self._bases(ts, prec)
        if self.weight:
            bits = prec.bits
            values = [
                mpf_mul(value, mpf_pow_int(t, self.weight, bits, _RN), bits, _RN)
                for value, t in zip(values, ts)
            ]
        return values

    def evaluate(self, t, prec=DEFAULT_PRECISION):
        """kernel(t) t^weight at the working precision, t converted there;
        a t < 0 of f12, bessel or h raises a ValueError that prints it
        there."""
        with prec.workdps():
            t = to_mpf(t)
            name = _ARGUMENTS.get(self.kind)
            if name and t < 0:
                raise ValueError(f"{name} must be nonnegative, got {t}")
        return mp.make_mpf(self._values([t._mpf_], prec)[0])

    def _majorant(self, radius, low, prec):
        """An upper bound on |kernel(w)| over complex w with |w| <= radius and
        Re w >= low, or inf where the kernel may have a pole there, for raw
        radius >= 0 and low, as a raw mpf at prec.bits.

        f12, bessel and const have nonnegative Taylor coefficients, so
        kernel(radius) bounds them.  The h-kernel is the entire
        sum_j w^j/(j!(j+1)!) = kernel_1f2(0, w), bounded the same way, minus
        w/(1 - e^-w), which has poles at 2 pi i m, m != 0.  For low > 0,
        |1 - e^-w| >= 1 - e^-low bounds the quotient; for radius < 2 pi the
        series gives |h(w)| <= sum_{j>=3} [1/(j!(j+1)!) + 4 (2 pi)^-j] R^j,
        and the first part of that is at most R^3/(144 (1 - R/20)), its terms
        falling by R/20 or more.  The smaller applicable bound is returned.
        For 0 < low < 1/4 the h-kernel's 1 - e^-low is mp.expm1's, in one
        precision context at prec; from 1/4 on it is _one_less_exp.
        """
        if self.kind != "h":
            return self._bases([radius], prec)[0]
        bits = prec.bits
        best = finf
        if mpf_gt(low, fzero):
            if mpf_lt(low, _QUARTER):
                with prec.workdps():
                    gap = (-mp.expm1(-mp.make_mpf(low)))._mpf_
            else:
                gap = _one_less_exp(low, bits)
            quotient = mpf_div(radius, gap, bits, _RN)
            best = mpf_add(_f12_values(0, [radius], prec)[0], quotient, bits, _RN)
        x = mpf_div(radius, mpf_mul_int(mpf_pi(bits, _RN), 2, bits, _RN), bits, _RN)
        if mpf_lt(x, fone):
            cube = mpf_pow_int(radius, 3, bits, _RN)
            shrink = mpf_sub(fone, mpf_div(radius, from_int(20), bits, _RN), bits, _RN)
            first = mpf_div(cube, mpf_mul_int(shrink, 144, bits, _RN), bits, _RN)
            poles = mpf_mul_int(mpf_pow_int(x, 3, bits, _RN), 4, bits, _RN)
            second = mpf_div(poles, mpf_sub(fone, x, bits, _RN), bits, _RN)
            series = mpf_add(first, second, bits, _RN)
            if mpf_lt(series, best):
                best = series
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
    semi-major axis semi, all raw mpfs, at _BOUND_PRECISION.bits.

    E_rho has centre c = (a+b)/2 and semi-major axis A = (b-a)/4 (rho + 1/rho),
    so each of its points w has |w| <= c + A and Re w >= c - A; the kernel's
    majorant takes it from there, |w^weight| <= (c+A)^weight and
    |e^(-zw)| <= e^(-z(c-A)).  -z is rounded to the bits first, as the
    mpf negation it stands for rounds.
    """
    bits = _BOUND_PRECISION.bits
    radius, low = mpf_add(c, semi, bits, _RN), mpf_sub(c, semi, bits, _RN)
    m = kernel._majorant(radius, low, _BOUND_PRECISION)
    decay = mpf_exp(mpf_mul(mpf_neg(z, bits, _RN), low, bits, _RN), bits, _RN)
    growth = mpf_mul(mpf_pow_int(radius, kernel.weight, bits, _RN), decay, bits, _RN)
    return mpf_mul(mpf_mul(m, growth, bits, _RN), _BOUND_SLACK, bits, _RN)


@lru_cache(maxsize=None)  # one entry per rho and order the bounds use
def _gauss_denominator(rho, order):
    """15 (rho^2 - 1) rho^(2 order - 2) for a raw rho, exactly."""
    _, man, exp, _ = rho
    n = 2 * order - 2
    less_one = mpf_sub(mpf_mul(rho, rho), fone)
    return mpf_mul(mpf_mul(from_int(15), less_one), from_man_exp(man**n, exp * n))


def _gauss_bound(half, majorant, rho, order, bits):
    """Error bound of order-point Gauss-Legendre on a panel of half-width half,
    for an integrand analytic inside E_rho and bounded there by majorant,
    all raw mpfs, at bits.

    Trefethen (Approximation Theory and Approximation Practice, Thm 19.3;
    SIAM Rev. 50 (2008), Thm 4.5) bounds the (n+1)-point rule on [-1, 1] by
    64 M / (15 (rho^2 - 1) rho^(2n)).  With order = n + 1 points that is
    64 M / (15 (rho^2 - 1) rho^(2 order - 2)); the panel scales it by half.
    The numerator is rounded once, and divided once by the exact
    denominator.
    """
    numerator = mpf_mul(mpf_shift(half, 6), majorant, bits, _RN)
    return mpf_div(numerator, _gauss_denominator(rho, order), bits, _RN)


@lru_cache(maxsize=None)
def _gauss_legendre(order, dps):
    """Gauss-Legendre nodes and weights on [-1, 1] at dps digits, as pairs
    of raw mpfs.

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
            pairs.append((x._mpf_, w._mpf_))
            pairs.append(((-x)._mpf_, w._mpf_))
        return tuple(pairs)


def _gauss_panel(kernel, z, a, b, order, prec):
    """order-point Gauss-Legendre for kernel(t) t^weight e^(-zt) on [a, b],
    raw mpfs, at prec.bits: the nodes mid + half x, the kernel at every node
    from one pass, and the products w value e^(-zt) summed by one mpf_sum."""
    bits = prec.bits
    mid = mpf_shift(mpf_add(a, b, bits, _RN), -1)
    half = mpf_shift(mpf_sub(b, a, bits, _RN), -1)
    rule = _gauss_legendre(order, prec.working_dps)
    ts = [mpf_add(mid, mpf_mul(half, x, bits, _RN), bits, _RN) for x, _ in rule]
    minus_z = mpf_neg(z, bits, _RN)
    terms = []
    for (_, w), value, t in zip(rule, kernel._values(ts, prec), ts):
        decay = mpf_exp(mpf_mul(minus_z, t, bits, _RN), bits, _RN)
        terms.append(mpf_mul(mpf_mul(w, value, bits, _RN), decay, bits, _RN))
    return mpf_mul(half, mpf_sum(terms, bits, _RN), bits, _RN)


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
    return _at_digits(prec, min(digits, prec.digits))


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
    The panels are evaluated at _node_precision and summed at prec.  The
    transform enters two precision contexts: one at prec, for its inputs
    and its result, and inside it one at _BOUND_PRECISION, where its tail
    bounds are taken; its panels, nodes and edges enter none.
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
        T = max(mp.mpf(16), (1 / z + mp.mpf("1.5")) ** 2)
        edges = [mp.mpf(0)]
        x = min(1 / (2 * z), T / 8)
        while x < T:
            edges.append(x)
            x *= 2
        if edges[-1] != T:
            edges.append(T)
        with _BOUND_PRECISION.workdps():
            result = _transform(kernel, z, rel_tol, T, edges, prec, node_prec)
        value, error_bound, T, tail, nodes, bound_evaluations = result
        return QuadratureResult(
            value=mp.make_mpf(value),
            error_bound=mp.make_mpf(error_bound),
            truncation_point=mp.make_mpf(T),
            tail_bound=mp.make_mpf(tail),
            nodes=nodes,
            bound_evaluations=bound_evaluations,
        )


def _transform(kernel, z_mpf, rel_tol, T, edges, prec, node_prec):
    """laplace_transform's panels on raw mpfs: (value, error bound, T, tail
    bound, nodes, bound evaluations) from mpf inputs, the edges those of the
    first cut.  Runs inside _BOUND_PRECISION.workdps(), the precision of
    _tail_bound; its own failures print z and T at prec."""
    bits, low_bits = prec.bits, _BOUND_PRECISION.bits
    z, rel_tol, T = z_mpf._mpf_, rel_tol._mpf_, T._mpf_
    nodes, bound_evaluations = 0, 0
    edge_values = {}

    def evaluate_edges(ts):
        """The integrand at each t in ts not yet evaluated, in one pass."""
        nonlocal bound_evaluations
        new = [t for t in ts if t not in edge_values]
        bound_evaluations += len(new)
        minus_z = mpf_neg(z, low_bits, _RN)
        for t, value in zip(new, kernel._values(new, _BOUND_PRECISION)):
            decay = mpf_exp(mpf_mul(minus_z, t, low_bits, _RN), low_bits, _RN)
            edge_values[t] = mpf_mul(value, decay, low_bits, _RN)

    def lower(a, b):
        """integral over [a, b] of the exponential through the integrand's
        end values, below the integral where the integrand is log-concave."""
        evaluate_edges((a, b))
        fa, fb = edge_values[a], edge_values[b]
        width = mpf_sub(b, a, low_bits, _RN)
        if fa == fb:
            return mpf_mul(width, fa, low_bits, _RN)
        if fa == fzero or fb == fzero:
            return fzero
        drop = mpf_mul(width, mpf_sub(fa, fb, low_bits, _RN), low_bits, _RN)
        ratio = mpf_log(mpf_div(fa, fb, low_bits, _RN), low_bits, _RN)
        return mpf_div(drop, ratio, low_bits, _RN)

    def tail_at(T):
        tail = _tail_bound(kernel.weight, mp.make_mpf(T), z_mpf)._mpf_
        return mpf_mul(tail, _BOUND_SLACK, low_bits, _RN)

    def failure(detail, **inputs):
        with prec.workdps():
            return NumericFailure("laplace_transform", detail, z=z_mpf, **inputs)

    def share_of(scale, parts):
        return mpf_div(scale, from_int(parts), bits, _RN)

    def rule(a, b, share):
        """(order, bound) with the fewest nodes whose bound on [a, b] is at
        most share, or None.  Each order takes the locally best rho in
        _RHOS; it grows with the order, so one walk serves them all.  Each
        majorant and each bound is computed once."""
        half = mpf_shift(mpf_sub(b, a, bits, _RN), -1)
        c = mpf_shift(mpf_add(a, b, low_bits, _RN), -1)
        quarter = mpf_shift(mpf_sub(b, a, low_bits, _RN), -2)
        majorants, bounds = {}, {}

        def bound(j, order):
            nonlocal bound_evaluations
            key = (j, order)
            if key not in bounds:
                if j not in majorants:
                    bound_evaluations += 1
                    semi = mpf_mul(quarter, _RHO_SUMS[j], low_bits, _RN)
                    majorants[j] = _ellipse_majorant(kernel, z, c, semi)
                bounds[key] = _gauss_bound(half, majorants[j], _RHOS[j], order, bits)
            return bounds[key]

        # start near the best rho for e^(-zt) alone at two nodes, 8/(z half),
        # rounded to the nearest power of two as mp.nint(mp.log(., 2)) takes
        # it, and leave any ellipse that reaches a pole downwards
        target = mpf_rdiv_int(8, mpf_mul(z, half, bits, _RN), bits, _RN)
        wide = bits + 20
        log2 = mpf_div(mpf_log(target, wide, _RN), mpf_log(ftwo, wide, _RN), bits, _RN)
        j = to_int(mpf_nint(log2, bits, _RN)) - 1
        j = min(max(j, 0), len(_RHOS) - 1)
        for order in _ORDERS:
            while j > 0 and (
                bound(j, order) == finf or mpf_lt(bound(j - 1, order), bound(j, order))
            ):
                j -= 1
            while j + 1 < len(_RHOS) and mpf_lt(bound(j + 1, order), bound(j, order)):
                j += 1
            if mpf_le(bound(j, order), share):
                return order, bound(j, order)
        return None

    def cover(a, b, share):
        """Panels (bound, a, b, value) over [a, b], bounds summing to <= share."""
        nonlocal nodes
        out, todo = [], [(a, b, share)]
        while todo:
            if nodes + bound_evaluations > _NODE_BUDGET:
                raise failure("node budget exhausted before certification", nodes=nodes)
            a, b, share = todo.pop()
            chosen = rule(a, b, share)
            if chosen is None:
                mid = mpf_shift(mpf_add(a, b, bits, _RN), -1)
                share = mpf_shift(share, -1)
                todo += [(mid, b, share), (a, mid, share)]
                continue
            order, bound = chosen
            nodes += order
            value = _gauss_panel(kernel, z, a, b, order, node_prec)
            out.append((bound, a, b, value))
        return out

    edges = [t._mpf_ for t in edges]
    spans = list(zip(edges, edges[1:]))
    evaluate_edges(edges)
    scale = fzero
    for a, b in spans:
        scale = mpf_add(scale, lower(a, b), bits, _RN)
    scale = mpf_mul(rel_tol, scale, bits, _RN)
    tail = tail_at(T)
    extensions = 0

    def extend():
        nonlocal T, tail, extensions
        extensions += 1
        if extensions > 80:
            raise failure("tail bound failed to contract", T=mp.make_mpf(T))
        span = (T, mpf_mul(T, _THREE_HALVES, bits, _RN))
        T = span[1]
        tail = tail_at(T)
        return span

    while mpf_gt(tail, share_of(scale, 10)):
        spans.append(extend())
        more = mpf_mul(rel_tol, lower(*spans[-1]), bits, _RN)
        scale = mpf_add(scale, more, bits, _RN)

    panels = []
    for a, b in spans:
        panels += cover(a, b, share_of(scale, 4 * len(spans)))
    while True:
        total = mpf_sum([p[3] for p in panels], bits, _RN)
        err = mpf_sum([p[0] for p in panels], bits, _RN)
        scale = mpf_mul(rel_tol, mpf_abs(total), bits, _RN)
        if mpf_gt(tail, share_of(scale, 10)):
            panels += cover(*extend(), share_of(scale, 4 * (len(panels) + 1)))
        elif mpf_gt(err, mpf_shift(scale, -2)):
            worst = 0
            for i in range(1, len(panels)):
                if mpf_gt(panels[i][0], panels[worst][0]):
                    worst = i
            _, a, b, _ = panels.pop(worst)
            panels += cover(a, b, share_of(scale, 4 * (len(panels) + 1)))
        else:
            break
    return total, mpf_add(err, tail, bits, _RN), T, tail, nodes, bound_evaluations


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

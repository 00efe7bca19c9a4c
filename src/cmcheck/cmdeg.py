"""Sign-pattern scanning and bracketing of the completely monotonic degree.

A function f is completely monotonic when (-1)^n f^(n)(t) >= 0 for all n
and t > 0; its degree with respect to t is the largest r such that t^r f(t)
stays completely monotonic.  check_sign_pattern tests the alternating-sign
property on a finite logarithmic grid up to a finite order; the degree
estimator bisects on r between a pattern-pass and a pattern-fail, driven by
the derivatives of t^r H_k(t) that ScaledTailOracle assembles from one
r-independent set of integer sums per grid point (hk_sums, which takes the
order-0 tail there from one series, or past the seam 1/t = 2(k+1) from one
exponential, and derives every order from it), so a bisection step sums no
series.  The bisection's r are dyadics, so by the Leibniz rule and the
Vandermonde identity for rising factorials each scaled derivative is a
positive factor times an integer bracket, formed exactly with a proven
radius.  Every sign is read by one rule, specfun.ball_sign: a value and
its error ball are positive or negative where the ball lies on one side of
0, and undecided, refused with NumericFailure, where it holds 0.  A
bisection step reads every sign from an integer bracket and builds no mpf
value (ScaledDerivative.passes).  A scan (ball_minimum) reads a sign from
its ball where that lies off 0, else from a value of proven sign.  The
sign scans of h (HOracle) take two passes: one row per grid point from
the sign rung (h_sign_balls), whose bits grow with t, gives every
derivative there as an integer ball that holds its value at the digits
asked for, summed only until each ball excludes 0, or past its cap the
balls of the table at those digits (h_balls), and ball_minimum evaluates
at those digits, through refine, only the values whose balls do not lie
above 0 and the candidates for the minimum.  The sign scans of t^r H_k
(ScaledDerivative) take the same walk in one pass: each ball is the
bracket over the hk_sums that a bisection step reads, times an integer
factor, so every sign is that bracket's.  Any other oracle goes through
the same walk with no balls, each value a ball of radius 0.
A grid scan can only certify failure (a witness) or survive it (no claim
beyond the grid), so the result is a bracket, never an attained value.
Every value of t^r H_k, scaled_remainder_derivative's that eval prints
among them, is the same bracket times the same integer factor at 32 bits
past the working precision, rounded once, taken again at more digits
where the bracket cancels.
"""

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb
from operator import mul
from typing import Optional

from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_sub, round_nearest

from .laurent import _hk_factor, h_balls, h_sign_balls, h_table, hk_sums
from .specfun import (
    DEFAULT_PRECISION,
    NumericFailure,
    _GUARD_BITS,
    _as_mpf,
    _dyadic,
    ball_sign,
    refine,
    to_mpf,
)


class BracketError(ValueError):
    """The supplied r-interval does not straddle a pattern pass/fail change."""


@dataclass(frozen=True)
class LogGrid:
    """Geometric grid of `points` values from t_min to t_max inclusive."""

    t_min: float
    t_max: float
    points: int

    def __post_init__(self):
        if not isinstance(self.points, int) or self.points < 2:
            raise ValueError(f"points must be an integer >= 2, got {self.points!r}")
        if not 0 < _exact(self.t_min) < _exact(self.t_max):
            raise ValueError(
                f"need 0 < t_min < t_max, got {self.t_min!r}, {self.t_max!r}"
            )

    def values(self, prec=DEFAULT_PRECISION):
        with prec.workdps():
            lo = to_mpf(self.t_min)
            hi = to_mpf(self.t_max)
            ratio = (hi / lo) ** (mp.mpf(1) / (self.points - 1))
            out = [lo]
            for _ in range(self.points - 2):
                out.append(out[-1] * ratio)
            out.append(hi)
            return tuple(out)


def _exact(end):
    """A grid end as a Decimal or a Fraction, which compare exactly with each
    other, or ValueError where it is no finite real."""
    try:
        if isinstance(end, mp.mpf):
            num, e = _dyadic(end)
            return Fraction(num, 1 << e)
        if isinstance(end, Fraction):
            return end
        if Decimal(end).is_finite():
            return Decimal(end)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise ValueError(f"cannot interpret {end!r} as a finite real number")


@dataclass(frozen=True)
class Violation:
    """First grid point where the alternating-sign pattern fails."""

    order: int
    t: object
    value: object


@dataclass(frozen=True)
class SignPatternReport:
    """Outcome of a sign-pattern scan.

    min_signed is the smallest (-1)^n f^(n)(t) seen over all evaluated
    points, with its location; the scan passes when every signed value is
    proven positive (ball_sign), and the first proven negative is the
    violation.  A sign that its ball leaves undecided raises NumericFailure.
    """

    grid: LogGrid
    max_order: int
    passed: bool
    violation: Optional[Violation]
    min_signed: object
    argmin_order: int
    argmin_t: object
    evaluations: int


def check_sign_pattern(derivative_oracle, grid, max_order, prec=DEFAULT_PRECISION):
    """Scan (-1)^n f^(n)(t) >= 0 for n = 0..max_order over the grid.

    derivative_oracle(n, t) must return f^(n)(t) as a real.  Orders run
    outermost and t ascends, so a reported violation carries the smallest
    failing order and, within it, the smallest failing t.  Oracle errors
    surface as NumericFailure tagged with the offending (n, t).

    The walk is ball_minimum's, so its report is the one-pass walk's that
    evaluates every (n, t) it reaches.  An oracle with balls, an HOracle
    (the sign rung's balls) or a ScaledDerivative (balls from its
    brackets at prec), has its balls settle every sign they can up to its
    max_order, and only the rest, with the candidates for the minimum, are
    evaluated at prec, each of proven sign or refused; any other callable,
    and any order past the oracle's max_order, is evaluated at every key
    the walk reaches, its value a ball of radius 0 and a 0 refused.
    """
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError(f"max_order must be a nonnegative integer, got {max_order!r}")
    # oracle.balls(t), where the oracle has it, is None or the balls of
    # f^(n)(t) for n <= the oracle's max_order; every other key has no ball
    balls = getattr(derivative_oracle, "balls", None)
    top = -1 if balls is None else derivative_oracle.max_order
    rows = []  # the balls of ts by position, fetched as order 0 reaches them

    def ball(key):
        n, i = key
        if n > top:
            return None
        if n == 0:
            rows.append(balls(ts[i]))
        row = rows[i]
        if row is None:
            return None
        mid, rad, x = row[n]
        return (-mid if n % 2 else mid), rad, x

    with prec.workdps():
        ts = grid.values(prec)
        keys = [(n, i) for n in range(max_order + 1) for i in range(len(ts))]
        least, (n, i), evals, stopped = ball_minimum(
            keys,
            ball,
            lambda key: _signed_value(derivative_oracle, key[0], ts[key[1]]),
        )
        # the violation, if any, is the one negative signed value walked
        violation = None
        if stopped:
            violation = Violation(order=n, t=ts[i], value=-least if n % 2 else least)
        return SignPatternReport(
            grid=grid,
            max_order=max_order,
            passed=not stopped,
            violation=violation,
            min_signed=least,
            argmin_order=n,
            argmin_t=ts[i],
            evaluations=evals,
        )


def _below(a, x, b, y):
    """a 2^x < b 2^y, exactly, for integers a, b, x and y.  Where the shift
    to the common exponent reaches past the other integer's bits, the
    shifted side is the larger in magnitude unless 0, and its sign decides,
    so no shift is longer than the integers."""
    if x >= y:
        shift = x - y
        if a and shift >= b.bit_length():
            return a < 0
        return a << shift < b
    shift = y - x
    if b and shift >= a.bit_length():
        return b > 0
    return a < b << shift


def ball_minimum(keys, ball, exact):
    """(least, key, count, stopped): the smallest exact(key) over keys in
    order, as a one-pass walk that evaluates every key finds it.

    ball(key) is None or integers (H, R, x) with exact(key) in
    [H - R, H + R] 2^x; exact(key) is the value itself, an mpf that is
    nonzero and of proven sign, or it raises NumericFailure.  The walk
    takes the keys in order and reads the sign of each (ball_sign): a key
    whose ball lies above 0 is positive, and any other is evaluated at
    once, its sign the ball's where that lies below 0, else its value's.
    The first negative key ends the walk: stopped is then True and that
    key is the last of the count walked.  Every other key is settled by
    its ball alone.

    A ball whose lower end lies above the smallest upper end of all the
    balls walked, kept during the walk, holds a value larger than that
    ball's, so it cannot be the minimum.  The rest, the candidates, are
    evaluated in walk order in a second walk, and the first value smaller
    than all before it is kept, as the one-pass walk's strict < keeps it:
    least, its key, count and stopped equal that walk's.  Every comparison
    of balls is exact (_below), and an evaluated value enters as the ball
    of radius 0 at its mpf's own mantissa and exponent.
    """
    walked = []  # (key, ball, value or None)
    top = top_x = None  # the smallest upper end so far
    sign = 1
    for key in keys:
        b = ball(key)
        value = None
        sign = 0 if b is None else ball_sign(b[0], b[1])
        if sign < 1:
            value = exact(key)
            negative, man, e, _ = value._mpf_
            sign = sign or (-1 if negative else 1)
            b = (-man if negative else man, 0, e)
        walked.append((key, b, value))
        mid, rad, x = b
        if top is None or _below(mid + rad, x, top, top_x):
            top, top_x = mid + rad, x
        if sign < 0:
            break
    least = arg = None
    for key, (mid, rad, x), value in walked:
        if _below(top, top_x, mid - rad, x):
            continue
        if value is None:
            value = exact(key)
        if least is None or value < least:
            least, arg = value, key
    return least, arg, len(walked), sign < 0


def _signed_value(derivative_oracle, n, t):
    """(-1)^n f^(n)(t); oracle errors, and a 0, surface as NumericFailure."""
    try:
        value = (-1) ** n * to_mpf(derivative_oracle(n, t))
    except NumericFailure:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise NumericFailure(
            "check_sign_pattern", f"oracle failed: {exc}", n=n, t=t
        ) from exc
    ball_sign(value, 0, "check_sign_pattern", n=n, t=t)
    return value


class TableCache:
    """One table per grid point for the orders 0..max_order.

    summer(t) returns the table of t; it is summed on its first request and
    kept, so an order-major scan sums each grid point once however many
    orders it visits.  series counts the tables summed so far.
    """

    def __init__(self, summer, max_order, prec=DEFAULT_PRECISION):
        if not isinstance(max_order, int) or max_order < 0:
            raise ValueError(
                f"max_order must be a nonnegative integer, got {max_order!r}"
            )
        self.max_order = max_order
        self.prec = prec
        self._summer = summer
        self._tables = {}

    @property
    def series(self):
        return len(self._tables)

    def table(self, t):
        """The table at t (an mpf at working precision), summed on first use."""
        table = self._tables.get(t)
        if table is None:
            table = self._summer(t)
            self._tables[t] = table
        return table

    def _check_order(self, n):
        if not isinstance(n, int) or not 0 <= n <= self.max_order:
            raise ValueError(f"order must be in 0..{self.max_order}, got {n!r}")


class HOracle(TableCache):
    """h^(n)(t), n <= max_order, over h_table, with a row of balls per point.

    balls(t) is the sign rung's row h_sign_balls(max_order, t, prec), or
    past its cap the table's at prec (h_balls), kept per t like the tables:
    check_sign_pattern walks an HOracle in two passes (ball_minimum), so the
    tables at prec are summed only at the points that the balls cannot
    settle.  series counts the points that have a row or a table.  A value
    has the sign of h_table's balls, which refine passes only off 0.
    """

    def __init__(self, max_order, prec=DEFAULT_PRECISION):
        super().__init__(lambda t: h_table(0, max_order, t, prec), max_order, prec)
        self._balls = {}

    @property
    def series(self):
        return len(self._tables.keys() | self._balls.keys())

    def balls(self, t):
        """The balls at t, an mpf at working precision: the sign rung's
        (h_sign_balls), else the table's at prec (h_balls)."""
        if t not in self._balls:
            row = h_sign_balls(self.max_order, t, self.prec)
            self._balls[t] = row or h_balls(0, self.max_order, t, self.prec)
        return self._balls[t]

    def __call__(self, n, t):
        self._check_order(n)
        with self.prec.workdps():
            return self.table(to_mpf(t))[n]


# bits of the integer factors of ScaledDerivative.balls
_FACTOR_BITS = 64


class ScaledTailOracle(TableCache):
    """d^n/dt^n [t^r H_k(t)] for any r from one r-independent table per t.

    The table of t is hk_sums' integer sums S_i, i <= max_order, of
    T_i = sum_{m>k} (m)^(i) t^(k+1-m) (k+1)!/m! in units of 2^exp (rising
    factorials), with their radii.  From H_k^(i)(t) = (-1)^i lead t^-i T_i,
    lead = t^-(k+1)/(k+1)!, the Leibniz rule and the Vandermonde identity
    for rising factorials give

        (-1)^n d^n/dt^n [t^r H_k(t)] = t^(r-n) lead sum_j C(n,j) (-r)^(j) T_(n-j),

    so a step to another r sums no series: ScaledDerivative evaluates the
    bracket in integers.
    """

    def __init__(self, k, max_order, prec=DEFAULT_PRECISION):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"k must be a nonnegative integer, got {k!r}")
        # a summer that holds no reference to self, so that no cycle keeps
        # the tables alive after the last scan
        super().__init__(lambda t: hk_sums(k, t, max_order, prec), max_order, prec)
        self.k = k

    def at(self, r):
        """The oracle(n, t) = d^n/dt^n [t^r H_k(t)] for check_sign_pattern."""
        return ScaledDerivative(self, r)


class ScaledDerivative:
    """d^n/dt^n [t^r H_k(t)] at one r over the tables of a ScaledTailOracle.

    r = a / 2^s is the dyadic of its mpf, so 2^(s n) C(n,j) (-r)^(j) is the
    integer coeff_j = C(n,j) prod_{i<j} (i 2^s - a) 2^(s(n-j)); row n of
    them, with its absolute values and their sum W_n, is built on first use
    of order n (_coefficient_row), and nothing else is built per r.  The
    exact bracket B = sum_j coeff_j S_(n-j) times the positive factor V =
    t^(r-n) lead 2^(exp - s n) is (-1)^n d^n/dt^n [t^r H_k(t)] up to the
    sums' radii, so its sign is that of the exact bracket, which lies within
    R = sum_j |coeff_j| radii[n-j] of B: it is ball_sign(B, R), read in
    integers with no factor (__call__, passes).  V enters only as the
    integer factor of laurent._hk_factor, in the balls at 64 bits (balls)
    and at prec.bits + 32 (value_ball), whose mid rounded once at prec.bits
    is the value: a point costs one pow per width it is built at, and no
    other mpf arithmetic.

    check_sign_pattern walks it as an HOracle, over balls(t) from the same
    sums.
    """

    def __init__(self, tables, r):
        self.tables = tables
        self.r = _as_mpf(r, tables.prec)  # an mpf kept as it is at any precision
        a, self._s = _dyadic(self.r)
        # a builder that holds no reference to self, as the tables' summer
        self._rows = _Lazy(partial(_coefficient_row, a, self._s))
        self._balls = {}

    @property
    def max_order(self):
        return self.tables.max_order

    def balls(self, t):
        """[(H, rad, x) for n <= max_order]: d^n/dt^n [t^r H_k(t)] and the
        value v of __call__ both in [H - rad, H + rad] 2^x, from the sums
        of t at prec that passes reads.  Kept per t.

        With V = t^(r-n) lead 2^(exp - s n) > 0, the exact (-1)^n d^n/dt^n
        [t^r H_k(t)] is V b for a b within R of B.  At w bits _hk_factor
        gives g 2^y within a relative eps_n = (8 + 4n) 2^-w of V, either way
        (p = r - k - 1 is exact; 2^exp and 2^-(s n) enter y exactly).  So V
        b lies within (R + eps_n (|B| + R)) g 2^y of B g 2^y, and the row at
        w bits is

            H = (-1)^n B g,  rad = R g + floor((|B| + R) g (9 + 4n) 2^-w) + 1.

        The value v is the mid of the row at w = P + 32, P = prec.bits,
        rounded once at P bits, so (-1)^n v is within ((8 + 4n) 2^-(P+32) +
        2^-P) (1 + eps_n) |B| V of B V, and of B g 2^y at w = 64 within
        (eps_n + 2^-64) |B| g 2^y, as P >= 153 and n is under hk_sums'
        series budget, 2^18: rad at 64 bits covers it with the unit of (9 +
        4n) past eps_n.  As rad >= R g, a ball above 0 has B > R and one
        below 0 has B < -R: its sign is ball_sign(B, R), __call__'s and
        passes'.  An order costs integer sums, one multiply and one shift
        for its factor, and no mpf.  The orders are built on first use, so
        a walk that stops at order 1 builds no more.
        """
        return self._row(t, _FACTOR_BITS)

    def value_ball(self, n, t):
        """(H, rad, x) of order n at t with factors of prec.bits + 32 bits,
        as balls proves: d^n/dt^n [t^r H_k(t)] is in [H - rad, H + rad] 2^x,
        and __call__ returns H 2^x rounded once at prec.bits."""
        self.tables._check_order(n)
        t = _as_mpf(t, self.tables.prec)
        return self._row(t, self.tables.prec.bits + _GUARD_BITS)[n]

    def _row(self, t, bits):
        """The balls at t with factors of bits bits by order, each built on
        first use, and kept per (t, bits)."""
        row = self._balls.get((t, bits))
        if row is None:
            tables = self.tables
            core = tables.table(t)
            p = mpf_sub(self.r._mpf_, from_int(tables.k + 1))
            factors, y, step = _hk_factor(tables.k, t, p, self.max_order, bits)
            args = (core, factors, y + core.exp, step - self._s, self._rows, bits)
            # a builder that holds no reference to self, as the tables' summer
            row = self._balls[t, bits] = _Lazy(partial(_scaled_ball, *args))
        return row

    def __call__(self, n, t):
        """value_ball's mid rounded once at prec.bits, of the sign of its
        bracket, ball_sign(B, R), refused where passes refuses it."""
        mid, _, x = self.value_ball(n, t)
        sums, radii, _ = self.tables.table(_as_mpf(t, self.tables.prec))
        coeffs, magnitudes, _ = self._rows[n]
        bracket = sum(map(mul, coeffs, sums))
        self._sign(bracket, sum(map(mul, magnitudes, radii)), n, t)
        return mp.make_mpf(from_man_exp(mid, x, self.tables.prec.bits, round_nearest))

    def _sign(self, bracket, radius, n, t):
        return ball_sign(
            bracket, radius, "ScaledTailOracle", k=self.tables.k, r=self.r, n=n, t=t
        )

    def passes(self, ts, rows=None):
        """check_sign_pattern(self, grid, max_order).passed, ts = grid.values(prec).

        The walk is the scan's, orders outermost and t ascending, up to the
        tables' max_order, and each sign is ball_sign(B, R) of the bracket,
        __call__'s: B > R passes, B < -R fails and any other raises
        NumericFailure, in integers, with no factor and no t^r: every sign
        that the scan reads from its balls (balls) or from its values.

        rows holds, by position, (S, radii, tops) of the first points of ts
        whose order 0 has passed: hk_sums' sums and radii, and tops[n] =
        M_n = max(radii[0..n]).  Order 0's bracket is S_0 with radius
        radii[0] at every r (coeff_0 = 1), so a point's order 0 is judged
        once, when it joins rows, and only a point that passes it joins;
        the walk goes on at order 1 over all of rows.  A bisection passes
        the same list to every step over the same ts, so a step looks up no
        table by t that an earlier step fetched, judges no order 0 that an
        earlier step passed, and fetches no table that its walk does not
        reach.  As R = sum_j |coeff_j| radii[n-j] <= W_n M_n, a bracket
        above W_n M_n passes on one product, and only a bracket at or below
        it forms R.  Coefficient row n is built when the walk first reaches
        order n, so a step that fails at order 1 builds row 1 alone.
        """
        tables = self.tables
        if rows is None:
            rows = []
        for i in range(len(rows), len(ts)):
            sums, radii, _ = tables.table(ts[i])
            if self._sign(sums[0], radii[0], 0, ts[i]) < 0:
                return False
            rows.append((sums, radii, list(accumulate(radii, max))))
        for n in range(1, tables.max_order + 1):
            coeffs, magnitudes, weight = self._rows[n]
            for t, (sums, radii, tops) in zip(ts, rows):
                bracket = sum(map(mul, coeffs, sums))
                if bracket > weight * tops[n]:
                    continue
                radius = sum(map(mul, magnitudes, radii))
                if bracket <= radius and self._sign(bracket, radius, n, t) < 0:
                    return False
        return True


class _Lazy(dict):
    """Values by order, each built by build(n) on first use."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, n):
        ball = self[n] = self._build(n)
        return ball


def _coefficient_row(a, s, n):
    """(coeffs, magnitudes, weight) of order n at r = a / 2^s: coeff_j =
    C(n,j) prod_{i<j} (i 2^s - a) 2^(s(n-j)) for j = n..0, so that the row
    pairs with the sums in order (coeff_j with S_(n-j)), their absolute
    values and weight = W_n, the sum of those."""
    rising = [1]
    for i in range(n):
        rising.append(rising[-1] * ((i << s) - a))
    coeffs = [comb(n, j) * rising[j] << s * (n - j) for j in range(n, -1, -1)]
    magnitudes = [abs(c) for c in coeffs]
    return coeffs, magnitudes, sum(magnitudes)


def _scaled_ball(core, factors, y, step, rows, bits, n):
    """The ball of order n of ScaledDerivative.balls from the sums core at
    prec, the integer factors g_n of bits bits at 2^(y + n step) and
    ScaledDerivative's rows."""
    coeffs, magnitudes, _ = rows[n]
    g = factors[n]
    bracket = sum(map(mul, coeffs, core.sums))
    spread = sum(map(mul, magnitudes, core.radii))
    slack = (abs(bracket) + spread) * g * (9 + 4 * n) >> bits
    mid = bracket * g
    return (-mid if n % 2 else mid), spread * g + slack + 1, y + n * step


def scaled_remainder_derivative(k, r, n, t, prec=DEFAULT_PRECISION):
    """d^n/dt^n [t^r H_k(t)] for t > 0 and real r, to prec's digits.

    The value is ScaledDerivative's: the integer Leibniz bracket over
    hk_sums times the integer factor, the mid of the ball at prec.bits + 32
    bits that ScaledDerivative.balls proves, rounded once.  Where the
    bracket cancels (r near a zero of the derivative, or an integer r > k at
    large t, where the leading terms of the termwise sum vanish) the ball's
    rad may exceed |H| 10^-(digits+3); specfun.refine then takes the value
    again at more digits, or refuses with NumericFailure.  r and t are
    converted once, at prec, so every attempt evaluates the same point.
    """
    with prec.workdps():
        t = to_mpf(t)
        r = to_mpf(r)

    def evaluate(level):
        mid, rad, x = ScaledTailOracle(k, n, level).at(r).value_ball(n, t)
        return from_man_exp(mid, x, level.bits, round_nearest), [(mid, rad)]

    value = refine(evaluate, prec, "scaled_remainder_derivative", k=k, r=r, n=n, t=t)
    with prec.workdps():
        return +mp.make_mpf(value)


@dataclass(frozen=True)
class DegreeEstimate:
    """Bisection bracket [r_lo, r_hi]: pattern passes at r_lo, fails at r_hi.

    series is the number of H_k derivative tables formed for the bracket,
    one per grid point, each from one series or one exponential (hk_sums).
    """

    k: int
    r_lo: object
    r_hi: object
    tol: object
    grid: LogGrid
    max_order: int
    bisections: int
    series: int

    @property
    def width(self):
        return self.r_hi - self.r_lo


# default scans: the H_k degree and sign-pattern scans, and those of h
DEFAULT_DEGREE_GRID = LogGrid("1e-2", "1e6", 200)
DEFAULT_DEGREE_ORDER = 6
DEFAULT_H_GRID = LogGrid("0.05", "1e3", 200)
DEFAULT_H_ORDER = 8


def estimate_cm_degree(
    k,
    search=None,
    tol=None,
    grid=DEFAULT_DEGREE_GRID,
    max_order=DEFAULT_DEGREE_ORDER,
    prec=DEFAULT_PRECISION,
):
    """Bracket the completely monotonic degree of H_k by bisection on r.

    Scans the sign pattern of d^n/dt^n [t^r H_k(t)] on the grid; the search
    interval defaults to (k, k+2) and must straddle (pass at r_lo, fail at
    r_hi), else BracketError.  Bisection stops once r_hi - r_lo <= tol
    (default 1/32).  Every step shares one ScaledTailOracle, so each grid
    point takes its order-0 tail once, and the grid's values and the rows of
    its sums by position once.  A step is check_sign_pattern's verdict by
    ScaledDerivative.passes: it reads every sign from an integer bracket
    and its radius, builds no mpf value, and raises NumericFailure where a
    bracket leaves its sign undecided.  A step redoes only the work that
    depends on r: order 0 is judged once per point, and the rows of the
    integer coefficients and exact radii only as the walk needs them.
    """
    tables = ScaledTailOracle(k, max_order, prec)
    with prec.workdps():
        if search is None:
            search = (k, k + 2)
        r_lo = to_mpf(search[0])
        r_hi = to_mpf(search[1])
        if not r_lo < r_hi:
            raise ValueError(f"need r_lo < r_hi, got {search!r}")
        tol = to_mpf(tol) if tol is not None else mp.mpf(1) / 32
        if tol <= 0:
            raise ValueError(f"tol must be positive, got {tol}")

        ts = grid.values(prec)
        rows = []

        def passes(r):
            return tables.at(r).passes(ts, rows)

        if not passes(r_lo):
            raise BracketError(
                f"sign pattern already fails at r_lo = {r_lo}; bracket invalid"
            )
        if passes(r_hi):
            raise BracketError(
                f"sign pattern still passes at r_hi = {r_hi}; bracket invalid"
            )
        steps = 0
        while r_hi - r_lo > tol:
            mid = (r_lo + r_hi) / 2
            if passes(mid):
                r_lo = mid
            else:
                r_hi = mid
            steps += 1
            if steps > 200:
                raise NumericFailure(
                    "estimate_cm_degree", "bisection failed to converge", k=k
                )
        return DegreeEstimate(
            k=k,
            r_lo=r_lo,
            r_hi=r_hi,
            tol=tol,
            grid=grid,
            max_order=max_order,
            bisections=steps,
            series=tables.series,
        )

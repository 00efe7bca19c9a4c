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
value (ScaledDerivative.passes).  The sign scans of h (HOracle) take two
passes: one row per grid point from the sign rung (h_sign_balls), whose
bits grow with t, gives every derivative there as an integer ball that
holds its value at the digits asked for, summed only until each ball
excludes 0, or past its cap the balls of the table at those digits
(h_balls), and ball_minimum evaluates at those digits only the values
whose balls do not lie above 0, each judged by the ball of the table
there, and the candidates for the minimum.  The sign scans of t^r H_k (ScaledDerivative) take the same
walk in one pass: each ball is the bracket over the hk_sums that a
bisection step reads, times an integer factor, so every sign is that
bracket's.  Any other oracle goes through the same walk with no balls,
each value a ball of radius 0.
A grid scan can only certify failure (a witness) or survive it (no claim
beyond the grid), so the result is a bracket, never an attained value.
scaled_remainder_derivative, the one value of t^r H_k that eval prints,
comes from the same bracket and its radius, taken again at more digits
where the bracket cancels.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from math import comb, factorial
from operator import mul
from typing import Optional

from mpmath import mp
from mpmath.libmp import from_int, mpf_pos, mpf_pow, mpf_sub, round_nearest

from .laurent import _hk_lead, h_balls, h_sign_balls, h_table, hk_sums
from .specfun import (
    DEFAULT_PRECISION,
    NumericFailure,
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
        if not 0 < float(self.t_min) < float(self.t_max):
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
    evaluated at prec, where the oracle's judge(n, t) reads the sign from
    its ball there; any other callable, and any order past the oracle's
    max_order, is evaluated at every key the walk reaches, its value a ball
    of radius 0.
    """
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError(f"max_order must be a nonnegative integer, got {max_order!r}")
    # oracle.balls(t), where the oracle has it, is None or the balls of
    # f^(n)(t) for n <= the oracle's max_order; every other key has no ball
    balls = getattr(derivative_oracle, "balls", None)
    top = -1 if balls is None else derivative_oracle.max_order
    judge = getattr(derivative_oracle, "judge", None)
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

    def sign(key, signed):
        n, t = key[0], ts[key[1]]
        if judge is not None:
            return judge(n, t)
        return ball_sign(signed, 0, "check_sign_pattern", n=n, t=t)

    with prec.workdps():
        ts = grid.values(prec)
        keys = [(n, i) for n in range(max_order + 1) for i in range(len(ts))]
        least, (n, i), evals, stopped = ball_minimum(
            keys,
            ball,
            lambda key: _signed_value(derivative_oracle, key[0], ts[key[1]]),
            sign,
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


def ball_minimum(keys, ball, exact, judge=None):
    """(least, key, count, stopped): the smallest exact(key) over keys in
    order, as a one-pass walk that evaluates every key finds it.

    ball(key) is None or integers (H, R, x) with exact(key) in
    [H - R, H + R] 2^x; exact(key) is the value itself, an mpf.  The walk
    takes the keys in order, and a key whose ball is None is evaluated at
    once.  With judge, the walk also reads the sign of every key
    (ball_sign): a key whose ball lies above 0 is positive, and any other
    is evaluated at once, its sign the ball's where that lies below 0, else
    judge(key, value), 1 or -1, which raises NumericFailure where its own
    ball leaves the sign undecided.  The first negative key ends the walk:
    stopped is then True and that key is the last of the count walked.
    Every other key is settled by its ball alone.

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
        sign = 1 if judge is None else 0 if b is None else ball_sign(b[0], b[1])
        if b is None or sign < 1:
            value = exact(key)
            if sign == 0:
                sign = judge(key, value)
            negative, man, e, _ = value._mpf_
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
    """(-1)^n f^(n)(t); oracle errors surface as NumericFailure."""
    try:
        return (-1) ** n * to_mpf(derivative_oracle(n, t))
    except NumericFailure:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise NumericFailure(
            "check_sign_pattern", f"oracle failed: {exc}", n=n, t=t
        ) from exc


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
    settle.  series counts the points that have a row or a table.  judge(n,
    t) reads a sign that the balls leave undecided from the table's ball.
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

    def judge(self, n, t):
        """The sign of (-1)^n h^(n)(t) by the ball of the table at prec."""
        ((mid, rad, _),) = h_balls(n, n, t, self.prec)
        return ball_sign((-1) ** n * mid, rad, "HOracle", n=n, t=t)


# bits of the integer factors of ScaledDerivative.balls
_FACTOR_BITS = 64


def _power(t, r, bits):
    """t^r for raw mpfs t > 0 and r at bits, rounded once from a pow at extra bits."""
    # |r log t| < 2^extra, so log's error costs t^r under 2^-(bits+19)
    extra = max(r[2] + r[3], 0) + (abs(t[2] + t[3]) + 1).bit_length() + 10
    return mpf_pos(mpf_pow(t, r, bits + extra, round_nearest), bits, round_nearest)


class ScaledTailOracle(TableCache):
    """d^n/dt^n [t^r H_k(t)] for any r from one r-independent table per t.

    The table of t is hk_sums' integer sums S_i, i <= max_order, of
    T_i = sum_{m>k} (m)^(i) t^(k+1-m) (k+1)!/m! in units of 2^exp (rising
    factorials), with their radii.  The r-independent factors
    lead 2^exp (-1/t)^n are built by factors(t) on first use and kept.
    From H_k^(i)(t) = (-1)^i lead t^-i T_i, the Leibniz rule and the
    Vandermonde identity for rising factorials give

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
        self._factors = {}

    def at(self, r):
        """The oracle(n, t) = d^n/dt^n [t^r H_k(t)] for check_sign_pattern."""
        return ScaledDerivative(self, r)

    @cached_property
    def _guard(self):
        """(bits, eta) of every ScaledDerivative's values at prec: mp.prec
        there and eta = (k + 2 max_order + 16) 2^-bits, built on first use."""
        with self.prec.workdps():
            return mp.prec, mp.ldexp(self.k + 2 * self.max_order + 16, -mp.prec)

    def factors(self, t):
        """[lead 2^exp (-1/t)^n for n <= max_order] at t, built on first use."""
        factors = self._factors.get(t)
        if factors is None:
            step = -1 / t
            factors = [mp.ldexp(_hk_lead(self.k, t), self.table(t).exp)]
            for _ in range(self.max_order):
                factors.append(factors[-1] * step)
            self._factors[t] = factors
        return factors


class ScaledDerivative:
    """d^n/dt^n [t^r H_k(t)] at one r over the tables of a ScaledTailOracle.

    r = a / 2^s is the dyadic of its mpf, so 2^(s n) C(n,j) (-r)^(j) is the
    integer coeff_j = C(n,j) prod_{i<j} (i 2^s - a) 2^(s(n-j)); row n of
    them, with its absolute values and their sum W_n, is built on first use
    of order n (_coefficient_row).  Nothing else is built per r, as the
    radius's mpf constants are the tables', built at the first value of any
    r.  Each evaluation forms the exact bracket B = sum_j coeff_j S_(n-j)
    and returns B times the factor t^r 2^-(s n) lead 2^exp (-1/t)^n, which
    costs one pow per (r, t) it values.  The factor is positive up to
    (-1)^n, so the sign of (-1)^n d^n/dt^n [t^r H_k(t)] is that of the
    exact bracket, which lies within R, the radius below, of B: it is
    ball_sign(B, R), read in integers (judge, passes).

    Error radius (ball).  hk_sums gives S_i <= T_i 2^-exp <= S_i + radii[i],
    so the exact bracket is within R = sum_j |coeff_j| radii[n-j] of B.  The
    factor F is within a relative (k + 2n + 7) 2^-prec of its exact value:
    k + 4 roundings in lead (1/t raised to k+1, one division), 2n in the
    powers of -1/t, 2 in t^r (taken at enough extra bits that the error of
    the logarithm, scaled by |r log t|, stays below one of them) and 1 in
    the product.  The conversion of the product B F rounds once more.  With
    eta = (k + 2 max_order + 16) 2^-prec, which leaves room for second-order
    terms and the rounding of the radius itself, the value v = B F is thus
    within R |F| (1 + eta) + |v| eta of the exact derivative.

    check_sign_pattern walks it as an HOracle: balls(t) gives every order
    at t as an integer ball from the same sums, and only the values the
    balls cannot settle are evaluated.
    """

    def __init__(self, tables, r):
        self.tables = tables
        if type(r) is mp.mpf:  # kept as it is at any precision
            self.r = to_mpf(r)
        else:
            with tables.prec.workdps():
                self.r = to_mpf(r)
        a, self._s = _dyadic(self.r)
        # a builder that holds no reference to self, as the tables' summer
        self._rows = _Lazy(partial(_coefficient_row, a, self._s))
        self._points = {}
        self._balls = {}

    @property
    def max_order(self):
        return self.tables.max_order

    def _point(self, t):
        """(S, radii, factors, t^r) at t; all but t^r are r-independent."""
        point = self._points.get(t)
        if point is None:
            core = self.tables.table(t)
            power = mp.make_mpf(_power(t._mpf_, self.r._mpf_, mp.prec))
            point = (core.sums, core.radii, self.tables.factors(t), power)
            self._points[t] = point
        return point

    def balls(self, t):
        """[(H, rad, x) for n <= max_order]: d^n/dt^n [t^r H_k(t)] and the
        value v = B F of __call__ both in [H - rad, H + rad] 2^x, from the
        sums of t at prec that passes reads.  Kept per t.

        With V = t^(r-n) lead 2^(exp - s n) > 0, the exact (-1)^n d^n/dt^n
        [t^r H_k(t)] is V b for a b within R of B (error radius), and (-1)^n
        v is within (k + 2n + 8) 2^-P |B| V of V B, P = mp.prec at prec:
        the factor's k + 2n + 7 roundings and the product's one.

        The factor.  V = g 2^y within a relative eps_n = (8 + 4n) 2^-64 of
        g 2^y, as V = t^(r-k-1-n) 2^(exp - s n) / (k+1)!.  At order 0,
        t^(r-k-1) at 64 bits (_power; r - k - 1 is exact) is within 2 2^-64,
        and g is the floor of its mantissa, shifted to over 2^63, over
        (k+1)!: 2^-63 more.  Each order multiplies g by inv =
        floor(2^(64+b)/den), b = bitlen(den) and t = den/2^e, within 2^-64 of
        2^(64+b-e)/t, and shifts it down by 64 bits, within 2^-63 as g stays
        over 2^63; 2^exp, 2^-s and the rest of 1/t enter y exactly.  So V b
        lies within (R + eps_n (|B| + R)) g 2^y of B g 2^y, and (-1)^n v
        within (eps_n + 2^-64) |B| g 2^y, as P >= 153 and k and n are under
        hk_sums' series budget, so (k + 2n + 8) 2^-P (1 + eps_n) < 2^-64:

            H = (-1)^n B g,  rad = R g + floor((|B| + R) g (9 + 4n) 2^-64) + 1.

        As rad >= R g, a ball above 0 has B > R and one below 0 has B < -R:
        its sign is ball_sign(B, R), judge's and passes'.  A point costs one
        pow at 64 bits; an order costs integer sums, one multiply and one
        shift for its factor, and no mpf.  The orders are built on first
        use, so a walk that stops at order 1 builds no more.
        """
        balls = self._balls.get(t)
        if balls is None:
            balls = self._balls[t] = self._ball_row(t)
        return balls

    def _ball_row(self, t):
        """The balls at t by order, each built on first use."""
        tables = self.tables
        core = tables.table(t)
        fact = factorial(tables.k + 1)
        exponent = mpf_sub(self.r._mpf_, from_int(tables.k + 1))
        _, man, y, size = _power(t._mpf_, exponent, _FACTOR_BITS)
        shift = _FACTOR_BITS - size + fact.bit_length()
        factors = [(man << shift) // fact]
        den, e = _dyadic(t)
        inv = (1 << _FACTOR_BITS + den.bit_length()) // den
        for _ in range(self.max_order):
            factors.append(factors[-1] * inv >> _FACTOR_BITS)
        # a builder that holds no reference to self, as the tables' summer
        return _Lazy(
            partial(
                _scaled_ball,
                core,
                factors,
                y + core.exp - shift,
                e - den.bit_length() - self._s,
                self._rows,
            )
        )

    def _evaluate(self, n, t):
        """(v, B, R, F): the value, the integer bracket and its radius, the factor."""
        sums, radii, factors, power = self._point(t)
        coeffs, magnitudes, _ = self._rows[n]
        bracket = sum(map(mul, coeffs, sums))
        radius = sum(map(mul, magnitudes, radii))
        factor = mp.ldexp(power * factors[n], -self._s * n)
        return factor * bracket, bracket, radius, factor

    def _radius(self, value, radius, factor):
        eta = self.tables._guard[1]
        return abs(factor) * radius * (1 + eta) + abs(value) * eta

    def __call__(self, n, t):
        if mp.prec != self.tables._guard[0]:
            with self.tables.prec.workdps():
                return self(n, t)
        self.tables._check_order(n)
        if type(t) is not mp.mpf:
            t = to_mpf(t)
        return self._evaluate(n, t)[0]

    def judge(self, n, t):
        """The sign of (-1)^n d^n/dt^n [t^r H_k(t)], ball_sign(B, R) of the
        bracket at prec, as passes reads it."""
        self.tables._check_order(n)
        with self.tables.prec.workdps():
            _, bracket, radius, _ = self._evaluate(n, to_mpf(t))
        return self._sign(bracket, radius, n, t)

    def _sign(self, bracket, radius, n, t):
        return ball_sign(
            bracket, radius, "ScaledTailOracle", k=self.tables.k, r=self.r, n=n, t=t
        )

    def passes(self, ts, rows=None):
        """check_sign_pattern(self, grid, max_order).passed, ts = grid.values(prec).

        The walk is the scan's, orders outermost and t ascending, up to the
        tables' max_order, and each sign is ball_sign(B, R) of the bracket,
        judge's: B > R passes, B < -R fails and any other raises
        NumericFailure, in integers, with no factor and no t^r: every sign
        that the scan reads from its balls (balls) or from judge.

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


def _scaled_ball(core, factors, y, step, rows, n):
    """The ball of order n of ScaledDerivative.balls from the sums core at
    prec, the integer factors g_n at 2^(y + n step) and ScaledDerivative's
    rows."""
    coeffs, magnitudes, _ = rows[n]
    g = factors[n]
    bracket = sum(map(mul, coeffs, core.sums))
    spread = sum(map(mul, magnitudes, core.radii))
    slack = (abs(bracket) + spread) * g * (9 + 4 * n) >> _FACTOR_BITS
    mid = bracket * g
    return (-mid if n % 2 else mid), spread * g + slack + 1, y + n * step


def scaled_remainder_derivative(k, r, n, t, prec=DEFAULT_PRECISION):
    """d^n/dt^n [t^r H_k(t)] for t > 0 and real r, to prec's digits.

    The value v and its error radius are ScaledDerivative's: the integer
    Leibniz bracket over hk_sums times one mpf factor, within the radius
    its docstring proves.  Where the bracket cancels (r near a zero of the
    derivative, or an integer r > k at large t, where the leading terms of
    the termwise sum vanish) the radius may exceed |v| 10^-(digits+3);
    specfun.refine then takes v again at more digits, or refuses with
    NumericFailure.  r and t are converted once, at prec, so every attempt
    evaluates the same point.
    """
    with prec.workdps():
        t = to_mpf(t)
        r = to_mpf(r)

    def evaluate(level):
        oracle = ScaledTailOracle(k, n, level).at(r)
        with level.workdps():
            value, _, radius, factor = oracle._evaluate(n, t)
            return value, [(value, oracle._radius(value, radius, factor))]

    value = refine(evaluate, prec, "scaled_remainder_derivative", k=k, r=r, n=n, t=t)
    with prec.workdps():
        return +value


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

"""Inequality scans and the exact polynomial algebra behind the difference bound.

Two inequalities are scanned over log grids, both through the h engines:
the trigamma bound psi'(t) < e^(1/t) - 1 (margin h(t) - 1) and the Bessel
lower bound I_1(t) > (t/2)^3 / (1 - e^(-(t/2)^2)) (margin (t/2) times the
Laplace density of h - 1 at (t/2)^2).  A scan passes where the sign of
every margin's ball is positive (specfun.ball_sign), and an undecided
sign raises NumericFailure.  The trigamma scan takes two passes: a ball
of h - 1 at every grid point from the sign rung, summed only until it
excludes 0 (laurent.h_sign_balls), and the margin at the digits asked for
only where cmdeg.ball_minimum cannot rule the point out of the minimum, or
where the rung declines, past its cap.  The Bessel scan
takes every margin of its grid, with a relative radius, from one sequence
evaluation of the h kernel.  The polynomial family f_i(t) that drives the
difference-derivative bound

    (-1)^i [h(t+1) - h(t)]^(i) < i! f_i(t) / (12 t^(i+3) (t+1)^(i+3))

is implemented in four algebraically equivalent displayed forms, evaluated
in exact rational arithmetic whenever t is exact, so form equivalence and
negativity can be checked with zero tolerance, and so can the sign of the
bound's right side at a dyadic t.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial

from mpmath import mp

from .cmdeg import LogGrid, ball_minimum
from .laplace import _h_pieces
from .laurent import _less_one, h_balls, h_sign_balls
from .specfun import DEFAULT_PRECISION, _dyadic, ball_sign, refine, to_mpf

FPOLY_FORMS = ("A", "B", "C", "D")

DEFAULT_TRIGAMMA_GRID = LogGrid(1e-2, 100, 500)
DEFAULT_BESSEL_GRID = LogGrid(1e-2, 50, 500)
DEFAULT_NEGATIVITY_GRID = LogGrid(1e-2, 1e3, 60)


def fpoly_validated(i, form):
    """Whether the chosen form is within its validated range.

    Forms C and D agree with A only for i >= 1; at i = 0 both reduce to
    -20 t^3 - 2, which is not f_0 = -2.  Their i = 0 values are still
    returned, marked out of range.
    """
    return form in ("A", "B") or i >= 1


def _convert(c, exact):
    return c if exact else to_mpf(c)


def _fpoly_a(i, t):
    u = t + 1
    return (
        6 * (i + 1) * t * u * (u ** (i + 2) + t ** (i + 2))
        - 12 * t * t * u * u * (u ** (i + 1) - t ** (i + 1))
        - (i + 1) * (i + 2) * (u ** (i + 3) - t ** (i + 3))
    )


def _fpoly_b(i, t):
    u = t + 1
    s1 = sum(comb(i + 2, l) * t ** l for l in range(i + 3))
    s2 = sum(comb(i + 1, l) * t ** l for l in range(i + 1))
    s3 = sum(comb(i + 3, l) * t ** l for l in range(i + 3))
    return (
        6 * (i + 1) * t * u * (s1 + t ** (i + 2))
        - 12 * t * t * u * u * s2
        - (i + 1) * (i + 2) * s3
    )


def _fpoly_head(i, t, exact):
    c1 = _convert(Fraction((i - 1) * (i + 4) * (i + 5), 2), exact)
    c2 = _convert(Fraction((2 - i) * (i + 3), 3), exact)
    return c1 * (c2 * t - i) * t * t - i * (i + 1) * (i + 5) * t - (i + 1) * (i + 2)


def _fpoly_c(i, t, exact):
    total = _fpoly_head(i, t, exact)
    for l in range(4, i + 1):
        bracket = (
            (i + 1) * (i + 2) * comb(i + 3, l)
            - 6 * (i + 1) * comb(i + 3, l - 1)
            + 12 * comb(i + 3, l - 2)
        )
        total -= bracket * t ** l
    return total


def _fpoly_d(i, t, exact):
    total = _fpoly_head(i, t, exact)
    acc = _convert(Fraction(0), exact)
    for l in range(4, i + 1):
        c = Fraction((i - l + 1) * (i - l + 2), l * (i - l + 5)) * comb(i + 3, l - 1)
        acc += _convert(c, exact) * t ** l
    return total - (i + 4) * (i + 5) * acc


def f_poly(i, t, form="A", prec=DEFAULT_PRECISION):
    """f_i(t) in one of its four displayed forms.

    A: factored powers of t and t+1.  B: the same with each power expanded
    by the binomial theorem.  C: collected powers with the bracketed
    l = 4..i sum.  D: the collected form with that sum rewritten over
    binomial coefficients.  All empty sums are nil.  Exact Fraction
    arithmetic when t is an int or Fraction, mpf otherwise; forms C and D
    are only validated against A for i >= 1 (see fpoly_validated).
    """
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"i must be a nonnegative integer, got {i!r}")
    if form not in FPOLY_FORMS:
        raise ValueError(f"form must be one of {FPOLY_FORMS}, got {form!r}")
    exact = isinstance(t, int) and not isinstance(t, bool) or isinstance(t, Fraction)
    with prec.workdps():
        t = Fraction(t) if exact else to_mpf(t)
        if t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        if form == "A":
            return _fpoly_a(i, t)
        if form == "B":
            return _fpoly_b(i, t)
        if form == "C":
            return _fpoly_c(i, t, exact)
        return _fpoly_d(i, t, exact)


@dataclass(frozen=True)
class InequalityScanReport:
    """Grid scan of a strict inequality: minimum margin and its location."""

    inequality: str
    grid: LogGrid
    min_margin: object
    argmin_t: object
    passed: bool
    evaluations: int


def _scan(inequality, grid, ts, ball, margin, judge):
    """The report of ball_minimum(ts, ball, margin, judge) over the grid's
    values ts, which passes where no margin's sign is negative."""
    best, best_t, count, stopped = ball_minimum(ts, ball, margin, judge)
    return InequalityScanReport(inequality, grid, best, best_t, not stopped, count)


def _h_minus_one_ball(t, prec):
    """The ball of h(t) - 1 from h_balls at prec, whose radius covers that
    one rounding."""
    return _less_one(*h_balls(0, 0, t, prec)[0])


def trigamma_margin(t, prec=DEFAULT_PRECISION):
    """h(t) - 1 for t > 0, to prec's digits of the margin itself.

    The value is the mid of the ball of h - 1 at the level's digits
    (_h_minus_one_ball), whose radius is proven relative to h ~ 1, not to
    the margin, 4.2e-10 at t = 100: where it exceeds |mid| 10^-(digits+3)
    the ball is taken again at raised digits (specfun.refine), and a margin
    that three raises cannot settle is refused with NumericFailure.
    """
    with prec.workdps():
        t = to_mpf(t)

    def evaluate(level):
        mid, rad, x = _h_minus_one_ball(t, level)
        return (mid, x), [(mid, rad)]

    mid, x = refine(evaluate, prec, "trigamma_margin", t=t)
    with prec.workdps():
        return mp.mpf((mid, x))


def check_ineq_trigamma(grid=DEFAULT_TRIGAMMA_GRID, prec=DEFAULT_PRECISION):
    """Scan psi'(t) < e^(1/t) - 1, i.e. margin h(t) - 1 > 0.

    At large t the margin decays like 1/(24 t^4), far above its radius on
    the default grid.  The scan takes two passes: the margin
    trigamma_margin(t) at prec only where the sign rung's ball of h - 1
    (h_sign_balls) leaves t a candidate for the minimum, usually one grid
    point, or where the rung declines, past its cap, and the ball of the
    table at prec then reads the sign.
    """

    def judge(t, _):
        mid, rad, _ = _h_minus_one_ball(t, prec)
        return ball_sign(mid, rad, "check_ineq_trigamma", t=t)

    def ball(t):
        balls = h_sign_balls(0, t, prec, less=1)
        return None if balls is None else balls[0]

    with prec.workdps():
        ts = grid.values(prec)
        return _scan(
            "trigamma", grid, ts, ball, lambda t: trigamma_margin(t, prec), judge
        )


def bessel_margin(t, prec=DEFAULT_PRECISION):
    """I_1(t) - (t/2)^3 / (1 - e^(-(t/2)^2)), as (t/2) h_kernel((t/2)^2).

    I_1(t) = (t/2) sum_j u^j / (j! (j+1)!) at u = (t/2)^2, so the margin is
    (t/2) times the Laplace density of h - 1.  Below u = 1/4 that density is
    summed as one series with the cancelling terms removed exactly; the
    direct subtraction loses ~ log10(9216 / t^6) digits (16 at t = 0.01).
    """
    return _bessel_margins([t], prec)[0][0]


def _bessel_margins(ts, prec):
    """[(bessel_margin(t), its radius) for t in ts], every density from one
    evaluation of the h kernel's sequence evaluator.

    Radius.  t/2 and u = (t/2)^2 are exact, and the h kernel is a - b
    rounded once, a and b the raw pieces of _h_pieces.  With P = prec.bits,
    the bits the pieces are formed at whatever the ambient precision, and
    S the series stop, each piece is within S + 20 2^-P of itself, relative,
    taking a power of u within 4 ulps: the 1F2 sums F are low by under
    S + 2^-(P+28) (_series_sums: past the stop the term ratio is under
    1/2, so the rest adds less than the last term), the Bernoulli tail T
    is within S + 2^-(P+40) (_bernoulli_tail), expm1 within an ulp, and
    a = u^3/144 F, b = u^4 T below u = 1/4, or a = F, b = u_ratio(u), take
    at most 5 more roundings.  Two more round the margin, so the radius
    (t/2)(|a| + |b|)(2 S + 2^(6-P)) covers its error with room for the
    second-order terms and its own rounding.  Below u = 1/4, a > 0 > b, so
    the radius is 2 S + 2^(6-P) of the margin: every sign there is decided.
    """
    with prec.workdps():
        halves = [to_mpf(t) / 2 for t in ts]
        us = [mp.fmul(half, half, exact=True)._mpf_ for half in halves]
        relative = 2 * prec.series_stop + mp.ldexp(1, 6 - prec.bits)
        pieces = [map(mp.make_mpf, pair) for pair in _h_pieces(us, prec)]
        return [
            (half * (a - b), half * (abs(a) + abs(b)) * relative)
            for half, (a, b) in zip(halves, pieces)
        ]


def check_ineq_bessel(grid=DEFAULT_BESSEL_GRID, prec=DEFAULT_PRECISION):
    """Scan I_1(t) > (t/2)^3 / (1 - e^(-(t/2)^2)), margin bessel_margin(t).

    For small t both sides open t/2 + t^3/16 + O(t^5) and the margin is
    ~ t^7/18432, which is why the scan needs the extended working precision.
    Every margin of the grid comes from one _bessel_margins, and each sign
    is read from the margin and its radius.
    """
    with prec.workdps():
        ts = grid.values(prec)
        margins = dict(zip(ts, _bessel_margins(ts, prec)))

        def judge(t, margin):
            return ball_sign(margin, margins[t][1], "check_ineq_bessel", t=t)

        return _scan("bessel", grid, ts, lambda t: None, lambda t: margins[t][0], judge)


@dataclass(frozen=True)
class DifferenceBoundCheck:
    """One instance of the difference-derivative bound, both sides negative."""

    i: int
    t: object
    lhs: object
    rhs: object
    passed: bool


def check_difference_bound(i, t, prec=DEFAULT_PRECISION):
    """Check (-1)^i [h^(i)(t+1) - h^(i)(t)] < i! f_i(t) / (12 t^(i+3) (t+1)^(i+3)).

    The left side comes from the balls of the table at prec (h_balls) at t
    and at t + 1, the right from form A of f_i.  Passing requires the strict
    inequality and both sides to be negative, which is the recursion step
    that drives complete monotonicity of h.
    """
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"i must be a nonnegative integer, got {i!r}")
    with prec.workdps():
        t = to_mpf(t)
        if t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        balls = partial(h_balls, i, i, prec=prec)
        after = balls(mp.fadd(t, 1, exact=True))[0]
        return _difference_bound(i, t, balls(t)[0], after, prec)


def _difference_bound(i, t, at, after, prec):
    """check_difference_bound(i, t, prec) from the balls (H, R, x) of
    h^(i)(t) and h^(i)(t+1), for an mpf t > 0 inside prec.workdps(); the
    suite passes one ball table of the orders 0..6 per point.

    rhs is exact in Fractions at the dyadic t, so its sign needs no radius.
    lhs lies in the difference of the two balls, rhs - lhs in that ball
    moved by rhs, and ball_sign reads both signs.  The values reported are
    rounded once each.
    """
    (h_at, r_at, x_at), (h_after, r_after, x_after) = at, after
    x = min(x_at, x_after)
    mid = (-1) ** i * ((h_after << x_after - x) - (h_at << x_at - x))
    rad = (r_after << x_after - x) + (r_at << x_at - x)
    num, e = _dyadic(t)
    q = Fraction(num, 1 << e)
    rhs = factorial(i) * f_poly(i, q) / (12 * q ** (i + 3) * (q + 1) ** (i + 3))
    sign = partial(ball_sign, operation="check_difference_bound", i=i, t=t)
    gap = rhs / Fraction(2) ** x - mid  # rhs - lhs in units 2^x
    passed = rhs < 0 and sign(mid, rad) < 0 and sign(gap, rad) > 0
    return DifferenceBoundCheck(i, t, mp.mpf((mid, x)), to_mpf(rhs), passed)

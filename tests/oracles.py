"""Independent reference routes used only by the test suite.

Every function here reaches a value by a deliberately different road than the
package does: plain partial sums with explicit term counts, symbolic
differentiation over exact rationals, numerical quadrature of classical
integral formulas, bracketed direct summation, or central finite differences.
Agreement between these and the package is then evidence, not tautology.
one_pass_minimum, one_pass_sign_pattern, one_pass_bessel and
one_pass_trigamma are the walks as one pass at the full precision, every
key or grid point evaluated and its sign read from the value alone (a zero
is undecided), which the package's two-pass walks must reproduce report
for report wherever no error ball leaves a sign undecided.
tail_scaled_derivatives sums every order of d^n/dt^n [t^r H_k(t)] for any
real r termwise in mpfs, with its own first stop and failure record: the
route the integer Leibniz brackets of the package are cross-checked
against.  termwise_table keeps its tables, summed once per point for all
the tests that meet there, and TableOracle serves such tables to
check_sign_pattern as termwise_oracle does; rising_sums sums the r = 0 case
termwise in integers, fast enough for t down to 1e-5, where the mpf route
takes seconds.  value_and_radius reads a ScaledDerivative's value and its
error radius, which the package keeps private.
interval_bessel_margin encloses the Bessel margin in mpmath's interval
arithmetic.  ball_candidates picks a walk's candidates for the minimum
from its balls alone, and h_table_passes records the digits of every pass
that h_table, or trigamma_margin, takes.  CoarseStop is the one precision policy here: a stop so
coarse that the truncated tail carries every radius of the H_k sums.
"""

from fractions import Fraction
from math import comb

from mpmath import iv, mp

from cmcheck import (
    DEFAULT_PRECISION,
    NumericFailure,
    WorkingPrecision,
    h_table,
)
from cmcheck import laurent
from cmcheck.cmdeg import SignPatternReport, TableCache, Violation
from cmcheck.inequalities import InequalityScanReport, bessel_margin, trigamma_margin
from cmcheck.laurent import _validate_order
from cmcheck.specfun import _SERIES_LIMIT, to_mpf


class CoarseStop(WorkingPrecision):
    # a stop threshold of 1/4 ends each H_k sum after a few terms, so the
    # truncated tail dominates the radius of every bracket
    @property
    def series_stop(self):
        return mp.mpf(1) / 4


def mpf_from_fraction(q):
    """Convert a Fraction to mpf at the current working precision."""
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def subtractive_remainder(k, z, dps=50):
    """e^(1/z) minus its Laurent partial sum through z^-k, by direct subtraction.

    Loses roughly k*log10(z) digits to cancellation for z > 1, which the
    elevated working precision absorbs.
    """
    with mp.workdps(dps + 10):
        z = mp.mpf(z)
        partial = mp.fsum(z ** (-m) / mp.factorial(m) for m in range(k + 1))
        return mp.exp(1 / z) - partial


def central_difference(f, n, t, dps=90, h_scale=-33):
    """n-th derivative of f at t via the order-2 central difference stencil.

    h = 2^h_scale is an exact dyadic so the nodes carry no representation
    error; the O(h^2) truncation sits near 1e-20 which is far below the
    1e-8 comparisons these cross-checks feed.
    """
    with mp.workdps(dps):
        t = mp.mpf(t)
        h = mp.mpf(2) ** h_scale
        acc = mp.mpf(0)
        for i in range(n + 1):
            node = t + (mp.mpf(n) / 2 - i) * h
            acc += (-1) ** i * comb(n, i) * f(node)
        return acc / h ** n


def polygamma_sum_bracket(n, t, terms=100000, dps=40):
    """Enclosure (lo, hi) of psi^(n)(t) by direct summation plus integral bracket.

    psi^(n)(t) = (-1)^(n+1) n! sum_{j>=0} (t+j)^-(n+1); the tail past J is
    trapped between the integrals from J and from J-1.  Width ~ (t+J)^-(n+1),
    so 1e5 terms certify about ten digits.
    """
    with mp.workdps(dps):
        t = mp.mpf(t)
        s = n + 1
        head = mp.fsum((t + j) ** (-s) for j in range(terms))
        tail_lo = (t + terms) ** (-n) / n
        tail_hi = (t + terms - 1) ** (-n) / n
        sign = (-1) ** (n + 1)
        a = sign * mp.factorial(n) * (head + tail_lo)
        b = sign * mp.factorial(n) * (head + tail_hi)
        return (a, b) if a <= b else (b, a)


def polygamma_quad(n, t, dps=60):
    """psi^(n)(t) by numerical quadrature of its Laplace-integral formula.

    Integrand u^n e^(-t u) / (1 - e^-u); the denominator goes through expm1
    so the u -> 0 end keeps full precision.  This route shares no code with
    series or recurrence evaluations.
    """
    with mp.workdps(dps):
        t = mp.mpf(t)

        def integrand(u):
            if u == 0:
                return mp.mpf(1) if n == 1 else mp.mpf(0)
            return u ** n * mp.exp(-t * u) / (-mp.expm1(-u))

        val = mp.quad(integrand, [0, 1, 10, mp.inf])
        return (-1) ** (n + 1) * val


def bessel_partial(nu, z, terms, dps=60):
    """Partial sum of sum_j (z/2)^(2j+nu) / (j! (j+nu)!) with an explicit term count."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        half = z / 2
        return mp.fsum(
            half ** (2 * j + nu) / (mp.factorial(j) * mp.factorial(j + nu))
            for j in range(terms)
        )


def hyp1f2_partial(b1, b2, t, terms, dps=60):
    """Partial sum of sum_n t^n / ((b1)_n (b2)_n) using factorial-built Pochhammers."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        total = mp.mpf(0)
        for n in range(terms):
            num = t ** n
            den = mp.mpf(1)
            for j in range(n):
                den *= (b1 + j) * (b2 + j)
            total += num / den
        return total


def kernel_1f2_partial(k, t, terms, dps=60):
    """Partial sum of sum_{m>k} t^(m-1) / (m! (m-1)!)."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        return mp.fsum(
            t ** (m - 1) / (mp.factorial(m) * mp.factorial(m - 1))
            for m in range(k + 1, k + 1 + terms)
        )


def kernel_bessel_partial(k, t, terms, dps=60):
    """Partial sum of sum_j t^j / (j! (j+k+2)!)."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        return mp.fsum(
            t ** j / (mp.factorial(j) * mp.factorial(j + k + 2))
            for j in range(terms)
        )


def tail_derivative_partial(k, r, n, t, terms, dps=60):
    """Partial sum of sum_{m>k} (1/m!) prod_{j<n} (r-m-j) t^(r-m-n).

    Differentiates the remainder tail termwise with explicit falling
    products, no shared code with the package's single-pass evaluator.
    """
    with mp.workdps(dps):
        t = mp.mpf(t)
        r = mp.mpf(r)
        total = mp.mpf(0)
        for m in range(k + 1, k + 1 + terms):
            prod = mp.mpf(1)
            for j in range(n):
                prod *= r - m - j
            total += prod * t ** (r - m - n) / mp.factorial(m)
        return total


def _first_stop(k, r, t, m_sign, m_ratio):
    """Smallest m at which the relative stop may end a tail sum over m > k.

    Uniform signs need m > r + max_order, given as m_sign =
    max_order + ceil(max(r, 0)); the relative stop additionally needs the
    term ratio ~ 1/(t m) safely below 1, given as m_ratio = ceil(1.5/t).  A
    first stop at or past the series budget can never be reached, so it
    raises at once instead of spending the budget.
    """
    m_min = k + 3 + max(m_sign, m_ratio)
    if m_min >= _SERIES_LIMIT:
        raise _budget_exhausted(k, r, t)
    return m_min


def _budget_exhausted(k, r, t):
    return NumericFailure(
        "tail_scaled_derivatives", "series budget exhausted", k=k, r=r, t=t
    )


def tail_scaled_derivatives(k, r, t, max_order, prec=DEFAULT_PRECISION):
    """All of d^n/dt^n [t^r H_k(t)], n = 0..max_order, in one pass over m.

    Term m contributes (t^-m / m!) prod_{j<n} (r-m-j) to order n before the
    common factor t^(r-n).  Summation continues past the term-magnitude
    peak near m ~ 1/t and past m > r + max_order (where every order has
    uniform sign), then stops once each order's latest term is below the
    relative threshold of its absolute partial sum.  This is the termwise
    route for any real r; hk_table sums the r = 0 case in fixed point.
    """
    _validate_order(k)
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError(f"max_order must be a nonnegative integer, got {max_order!r}")
    with prec.workdps():
        t = to_mpf(t)
        r = to_mpf(r)
        if t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        invt = 1 / t
        m_min = _first_stop(
            k, r, t, max_order + int(mp.ceil(max(r, 0))), int(mp.ceil(1.5 * invt))
        )
        sums = [mp.mpf(0) for _ in range(max_order + 1)]
        asums = [mp.mpf(0) for _ in range(max_order + 1)]
        last = [mp.inf for _ in range(max_order + 1)]
        stop = prec.series_stop
        m = k + 1
        q = invt ** (k + 1) / mp.factorial(k + 1)
        while m < _SERIES_LIMIT:
            sums[0] += q
            asums[0] += q
            last[0] = q
            prod = mp.mpf(1)
            for n in range(1, max_order + 1):
                prod *= r - m - (n - 1)
                c = q * prod
                sums[n] += c
                asums[n] += abs(c)
                last[n] = abs(c)
            if m >= m_min and all(
                last[n] < stop * asums[n] for n in range(max_order + 1)
            ):
                break
            m += 1
            q *= invt / m
        else:
            raise _budget_exhausted(k, r, t)
        scale = t ** r
        out = []
        for n in range(max_order + 1):
            out.append(sums[n] * scale)
            scale *= invt
        return out


class TableOracle(TableCache):
    """f^(n)(t) for check_sign_pattern, summer(t) = [f^(i)(t) for i <= max_order]."""

    def __call__(self, n, t):
        self._check_order(n)
        with self.prec.workdps():
            return self.table(to_mpf(t))[n]


def value_and_radius(oracle, n, t):
    """(v, rad) of a ScaledDerivative at order n and t: v the value that
    oracle(n, t) returns and rad the bound on its error that its error
    radius documents, from the same _evaluate and _radius as the guard."""
    oracle.tables._check_order(n)
    with oracle.tables.prec.workdps():
        value, _, radius, factor = oracle._evaluate(n, to_mpf(t))
        return value, oracle._radius(value, radius, factor)


# tail_scaled_derivatives tables by (prec, k, r, t), shared by every test
_TERMWISE = {}


def termwise_table(k, r, t, prec):
    """tail_scaled_derivatives(k, r, t, 6, prec), summed once per (prec, k, r, t).

    The termwise mpf series at r itself, with no shared code with the integer
    Leibniz brackets over hk_sums; r is an int or a Fraction and t a grid
    mpf, so the cross-checks that meet at the same point share one sum.
    """
    key = (prec, k, r, t)
    table = _TERMWISE.get(key)
    if table is None:
        table = _TERMWISE[key] = tail_scaled_derivatives(k, r, t, 6, prec)
    return table


def rising_sums(k, t, max_order, bits):
    """[T_n for n <= max_order] as Fractions, T_n = sum_{m>k} (m)^(n)
    t^(k+1-m) (k+1)!/m! with (m)^(n) = m (m+1) ... (m+n-1), for an mpf t > 0.

    Plain termwise sums in integers: q_m = x^(m-k-1) (k+1)!/m! (x = 1/t)
    kept at a floating binary scale with at least bits bits, each order
    adding (m)^(n) q_m, so no Lah numbers, no exponential and no fixed
    reciprocal of t.  Past m = x + max_order the ratio of successive terms
    of order n, (m+n) x / (m (m+1)), falls below 1, so the rest is at most
    the term over one less that ratio; the sum stops once that bound, for
    the largest weight (m+max_order)^max_order, is under 2^-bits of T_0.
    Every floor is relative 2^-bits, so at t >= 1e-5 (about 1e5 terms) the
    sums hold about bits - 40 bits.
    """
    man, exp = int(t.man), int(t.exp)
    num, den = (1 << -exp, man) if exp < 0 else (1, man << exp)
    q = 1 << bits
    scale = -bits
    sums = [0] * (max_order + 1)
    m = k + 1
    while True:
        rising = 1
        for n in range(max_order + 1):
            sums[n] += rising * q
            rising *= m + n
        spare = m * (m + 1) * den - (m + max_order) * num
        if spare > 0 and (
            (q * (m + max_order) ** max_order * m * (m + 1) * den) << bits
            < sums[0] * spare
        ):
            break
        m += 1
        q = q * num // (den * m)
        if q.bit_length() > 2 * bits:
            q >>= bits
            sums = [total >> bits for total in sums]
            scale += bits
    return [Fraction(total) * Fraction(2) ** scale for total in sums]


def termwise_oracle(k, r, prec):
    """d^n/dt^n [t^r H_k(t)], n <= 6, for check_sign_pattern from termwise_table."""
    return TableOracle(lambda t: termwise_table(k, r, t, prec), 6, prec)


def exp_recip_poly(i):
    """Coefficients of P_i with d^i/dt^i e^(1/t) = e^(1/t) P_i(1/t), exact.

    Built by the recursion P_{i+1}(x) = -x^2 (P_i(x) + P_i'(x)) over Fractions;
    returns a list c with P_i(x) = sum_p c[p] x^p.
    """
    coeffs = [Fraction(1)]
    for _ in range(i):
        deriv = [Fraction(p + 1) * coeffs[p + 1] for p in range(len(coeffs) - 1)]
        combined = [a + b for a, b in zip(coeffs, deriv + [Fraction(0)])]
        coeffs = [Fraction(0), Fraction(0)] + [-c for c in combined]
    return coeffs


def monomial_transform_exact(n, z, dps=60):
    """Closed form n! / z^(n+1) for the Laplace transform of t^n."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        return mp.factorial(n) / z ** (n + 1)


def bernoulli_plus(j, dps=60):
    """Bernoulli number with the B_1 = +1/2 convention, as mpf."""
    with mp.workdps(dps):
        return (-1) ** j * mp.bernoulli(j)


def fpoly_bruteforce(i, t):
    """f_i(t) by brute-force expansion of its defining combination, exact.

    Expands 6(i+1) t(t+1) ((t+1)^(i+2) + t^(i+2))
          - 12 t^2 (t+1)^2 ((t+1)^(i+1) - t^(i+1))
          - (i+1)(i+2) ((t+1)^(i+3) - t^(i+3))
    over exact rationals with binomial-theorem powers, no shared structure
    with the package's four forms.
    """
    t = Fraction(t)

    def tp1_pow(e):
        return sum(Fraction(comb(e, j)) * t ** j for j in range(e + 1))

    a = 6 * (i + 1) * t * (t + 1) * (tp1_pow(i + 2) + t ** (i + 2))
    b = 12 * t ** 2 * (t + 1) ** 2 * (tp1_pow(i + 1) - t ** (i + 1))
    c = (i + 1) * (i + 2) * (tp1_pow(i + 3) - t ** (i + 3))
    return a - b - c


def value_sign(value, **inputs):
    """The sign of a value with no radius: a zero is undecided."""
    if value == 0:
        raise NumericFailure("one_pass", "zero value", **inputs)
    return 1 if value > 0 else -1


def one_pass_minimum(keys, exact, judged=False):
    """cmdeg.ball_minimum's result by evaluating every key in order; judged,
    the first negative value ends the walk, and a zero raises."""
    least, arg, count = None, None, 0
    for key in keys:
        value = exact(key)
        count += 1
        if least is None or value < least:
            least, arg = value, key
        if judged and value_sign(value, key=key) < 0:
            return least, arg, count, True
    return least, arg, count, False


def one_pass_sign_pattern(oracle, grid, max_order, prec):
    """check_sign_pattern as one walk that evaluates every (n, t) it reaches.

    Orders outermost, t ascending, the smallest signed value kept by strict
    <, and the first negative signed value ends the walk.
    """
    with prec.workdps():
        least, arg_n, arg_t, evals, violation = mp.inf, -1, None, 0, None
        for n in range(max_order + 1):
            for t in grid.values(prec):
                value = oracle(n, t)
                signed = (-1) ** n * value
                evals += 1
                if signed < least:
                    least, arg_n, arg_t = signed, n, t
                if value_sign(signed, n=n, t=t) < 0:
                    violation = Violation(order=n, t=t, value=value)
                    break
            if violation is not None:
                break
        return SignPatternReport(
            grid=grid,
            max_order=max_order,
            passed=violation is None,
            violation=violation,
            min_signed=least,
            argmin_order=arg_n,
            argmin_t=arg_t,
            evaluations=evals,
        )


def one_pass_h_sign_pattern(grid, max_order, prec):
    """one_pass_sign_pattern over one full-precision h_table per grid point."""
    oracle = TableOracle(lambda t: h_table(0, max_order, t, prec), max_order, prec)
    return one_pass_sign_pattern(oracle, grid, max_order, prec)


def _one_pass_scan(inequality, margin, grid, prec):
    """An inequality scan as one walk: margin(t) at every grid point, passed
    where every margin is positive."""
    with prec.workdps():
        ts = grid.values(prec)
        least, arg, count, stopped = one_pass_minimum(ts, margin, judged=True)
        return InequalityScanReport(
            inequality=inequality,
            grid=grid,
            min_margin=least,
            argmin_t=arg,
            passed=not stopped,
            evaluations=count,
        )


def one_pass_bessel(grid, prec):
    """check_ineq_bessel as one walk: bessel_margin(t) at every grid point."""
    return _one_pass_scan("bessel", lambda t: bessel_margin(t, prec), grid, prec)


def one_pass_trigamma(grid, prec):
    """check_ineq_trigamma as one walk: trigamma_margin(t) at every grid point."""
    return _one_pass_scan("trigamma", lambda t: trigamma_margin(t, prec), grid, prec)


def interval_bessel_margin(t, dps):
    """(lo, hi), mpfs enclosing I_1(t) - (t/2)^3 / (1 - e^(-(t/2)^2)), by
    mpmath's interval arithmetic at dps digits and the direct difference.

    I_1 is its power series sum_j (t/2)^(2j+1) / (j! (j+1)!) in intervals
    (iv.besseli does not evaluate in mpmath 1.3), stopped once the next
    term ratio is at most 1/2, so that the rest is under the last term,
    which is added as the interval [0, last term].
    """
    saved = iv.prec
    iv.dps = dps
    try:
        half = iv.mpf(t) / 2
        u = half * half
        term = total = half
        j = 0
        while True:
            j += 1
            term = term * u / (j * (j + 1))
            total += term
            ratio = u / ((j + 1) * (j + 2))
            if ratio.b <= 0.5 and term.b <= total.a * iv.mpf(10) ** -(dps + 5):
                break
        total += iv.mpf([0, term.b])
        want = total - half**3 / (1 - iv.exp(-u))
        return mp.make_mpf(want._mpi_[0]), mp.make_mpf(want._mpi_[1])
    finally:
        iv.prec = saved


def ball_candidates(balls):
    """The keys of a walk that reaches every key which ball_minimum must
    evaluate as candidates for the minimum, from [(key, (H, R, x))] in walk
    order: each whose lower end, in exact rationals, is not above the
    smallest upper end of all the balls."""
    ends = [
        (key, Fraction(mid - rad) * Fraction(2) ** x, Fraction(mid + rad) * Fraction(2) ** x)
        for key, (mid, rad, x) in balls
    ]
    top = min(high for _, _, high in ends)
    return [key for key, low, _ in ends if low <= top]


def h_table_passes(monkeypatch, module=laurent):
    """{t: [digits of each pass]} of every h_table call from here on: the
    levels at which refine has it take its balls, first prec's and then
    each raise's; with module inequalities, of every trigamma_margin call."""
    passes = {}
    refine = module.refine

    def recorded(evaluate, prec, operation, **inputs):
        def counted(level):
            passes.setdefault(inputs["t"], []).append(level.digits)
            return evaluate(level)

        return refine(counted, prec, operation, **inputs)

    monkeypatch.setattr(module, "refine", recorded)
    return passes

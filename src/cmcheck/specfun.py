"""Special-function engines: polygamma, the derivatives of e^(1/t), modified
Bessel I, and 1F2 series.

Everything here evaluates at an explicit, caller-supplied precision.  The
policy object is WorkingPrecision: user-facing digits plus a fixed guard
and a relative stop threshold for positive-term series.  No function reads
ambient mp.dps.  Every sign verdict of the package is ball_sign's: the sign
of a value with a proven error radius, or undecided, and every value whose
radius is too wide for its digits, or 0, is taken again at more by refine.
The engines compute in Python integers at binary scales and round once to
a plain mpf at the end, in a workdps block.  Polygamma and the e^(1/t)
derivatives have integer cores (polygamma_fixed, _exp_recip_fixed) that
return each value as an integer and its binary exponent, so
laurent.h_table subtracts the two parts in integers before it rounds.  The
cores enter no workdps block but call mpmath.libmp at the policy's bits.
The 1F2 summation (_series_1f2) sums one argument; its integer core
_series_sums, which the laplace kernels call directly, sums a sequence of
arguments in one pass and reads the policy's bits and stop too.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, inf

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_int, mpf_add, mpf_ceil, mpf_exp
from mpmath.libmp import mpf_rdiv_int, mpf_sub, round_nearest, to_int

GUARD_DIGITS = 15

_SERIES_LIMIT = 200000


class NumericFailure(ArithmeticError):
    """An evaluation could not certify its target accuracy.

    Raised when a series or quadrature exhausts its budget, or an
    asymptotic tail fails to contract.  Carries the operation name and the
    offending inputs so reports can surface them.
    """

    def __init__(self, operation, detail, **inputs):
        self.operation = operation
        self.detail = detail
        self.inputs = inputs
        parts = ", ".join(f"{k}={v}" for k, v in inputs.items())
        super().__init__(f"{operation}: {detail} ({parts})")


def ball_sign(mid, rad, operation=None, **inputs):
    """1 or -1, the sign of every real in [mid - rad, mid + rad], for exact
    mid and rad >= 0 (a plain value is the ball of radius 0), as in Arb's
    midpoint-radius arithmetic; a ball that holds 0 is undecided: 0 without
    an operation, else NumericFailure(operation, ...) naming the inputs."""
    if mid > rad:
        return 1
    if mid < -rad:
        return -1
    if operation is None:
        return 0
    raise NumericFailure(operation, "sign undecided: the error ball holds 0", **inputs)


# precision raises that refine takes before it refuses
_MAX_RAISES = 3


def refine(evaluate, prec, operation, **inputs):
    """evaluate(level)'s result at prec's digits or more, by Ziv's rule
    (Ziv, ACM TOMS 17(3), 1991).

    evaluate(level) returns (result, balls) for a WorkingPrecision level:
    balls are pairs (mid, rad), exact reals with rad >= 0, each of which
    must have mid != 0 and rad <= |mid| 10^-(digits+3) at prec's digits,
    so each lies off 0.  Where one does not, result is taken again at
    level's digits raised by the digits lost, ceil(log10(rad/|mid|)) at the
    widest ball or every working digit of level where a ball holds 0, plus
    prec's digits + 5, but by at most level's digits: a raise at most
    doubles them, so the last of _MAX_RAISES raises runs at no more than 8
    times prec's digits.  A ball still too wide there refuses with
    NumericFailure(operation, "error radius ...") naming the inputs.
    """
    scale = 10 ** (prec.digits + 3)
    level = prec
    for _ in range(_MAX_RAISES + 1):
        result, balls = evaluate(level)
        with level.workdps():
            wide = [b for b in balls if not b[0] or b[1] * scale > abs(b[0])]
            if not wide:
                return result
            worst = max(mp.mpf(rad) / abs(mid) if mid else mp.inf for mid, rad in wide)
            lost = level.working_dps if worst >= 1 else int(mp.ceil(mp.log10(worst)))
        more = min(lost + prec.digits + 5, level.digits)
        level = replace(level, digits=level.digits + more)
    raise NumericFailure(
        operation,
        f"error radius above the digits asked for after {_MAX_RAISES} raises",
        **inputs,
    )


@dataclass(frozen=True)
class WorkingPrecision:
    """Precision policy: requested digits, derived guard digits and the
    series stop.

    digits is the user-facing precision (>= 30).  Internal work runs at
    digits + 15.  Positive-term series stop once a term drops below
    10^-(digits+5) of the running sum.  No threshold judges a sign: each
    verdict is ball_sign's, of a value and its error radius.
    """

    digits: int = 50

    def __post_init__(self):
        if not isinstance(self.digits, int) or self.digits < 30:
            raise ValueError(f"digits must be an integer >= 30, got {self.digits!r}")

    @property
    def working_dps(self):
        return self.digits + GUARD_DIGITS

    def workdps(self):
        """Context manager setting mp.dps to the guarded working precision."""
        return mp.workdps(self.working_dps)

    @property
    def series_stop(self):
        """Relative term threshold 10^-(digits+5) for positive-term series,
        rounded at the current precision."""
        return mp.mpf(10) ** -(self.digits + 5)

    @cached_property
    def bits(self):
        """mp.prec at working_dps: the precision of the integer cores."""
        return dps_to_prec(self.working_dps)

    @cached_property
    def dyadic_stop(self):
        """(num, e) with series_stop = num / 2^e exactly at bits."""
        if mp.prec == self.bits:
            return _dyadic(self.series_stop)
        with mp.workprec(self.bits):
            return _dyadic(self.series_stop)


DEFAULT_PRECISION = WorkingPrecision()


@lru_cache(maxsize=None)  # one entry per policy and digits that a process uses
def _at_digits(prec, digits):
    """prec's policy at digits, kept so that its bits and series stop are
    derived once and not on every call that raises or lowers prec."""
    return replace(prec, digits=digits)


def _as_mpf(t, prec, positive=False):
    """to_mpf(t) at prec's working precision, entering no workdps block for an
    mpf; with positive, a t <= 0 raises a ValueError that prints it there."""
    if type(t) is mp.mpf and not (positive and t <= 0):
        return to_mpf(t)
    with prec.workdps():
        t = to_mpf(t)
        if positive and t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        return t


def to_mpf(x):
    """Convert int, float, str, Fraction, or mpf to mpf at the current precision.

    Infinities and nan are rejected: no quantity here is meaningful there.
    """
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    try:
        v = mp.convert(x)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cannot interpret {x!r} as a real number") from exc
    if not isinstance(v, mp.mpf):
        raise ValueError(f"cannot interpret {x!r} as a real number")
    _, man, _, bc = v._mpf_
    if not man and bc:
        raise ValueError(f"{x!r} is not a finite real number")
    return v


def shifted_factorial(a, n, prec=DEFAULT_PRECISION):
    """Rising product a (a+1) ... (a+n-1); empty product 1 for n = 0.

    Exact (int or Fraction) when a is exact; otherwise evaluated as mpf at
    the working precision.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if isinstance(a, (int, Fraction)):
        out = 1
        for j in range(n):
            out *= a + j
        return out
    with prec.workdps():
        a = to_mpf(a)
        out = mp.mpf(1)
        for j in range(n):
            out *= a + j
        return out


def a_coeff(i, k):
    """Coefficient a_{i,k} = C(i,k) C(i-1,k) k! of the e^(1/t) derivative polynomial.

    d^i/dt^i e^(1/t) = (-1)^i e^(1/t) t^(-2i) sum_{k=0}^{i-1} a_{i,k} t^k.
    Exact integer; requires i >= 1 and 0 <= k <= i-1.
    """
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"i must be an integer >= 1, got {i!r}")
    if not isinstance(k, int) or k < 0 or k > i - 1:
        raise ValueError(f"k must satisfy 0 <= k <= i-1 = {i - 1}, got {k!r}")
    return comb(i, k) * comb(i - 1, k) * factorial(k)


def exp_recip_derivative(i, t, prec=DEFAULT_PRECISION):
    """i-th derivative of e^(1/t) via its closed-form coefficient polynomial.

    Returns (-1)^i e^(1/t) t^(-2i) sum_k a_{i,k} t^k; the i = 0 case is
    e^(1/t) itself.  t must be nonzero.  The value is _exp_recip_fixed's
    integer at its scale, rounded once to the working precision.
    """
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {i!r}")
    with prec.workdps():
        t = to_mpf(t)
        if t == 0:
            raise ValueError("t must be nonzero")
        ((man, exp),) = _exp_recip_fixed(i, i, t, prec.bits)
        return mp.mpf((man, exp))


@lru_cache(maxsize=None)  # one row per order, i <= the highest order asked for
def _exp_recip_row(i):
    """(a_{i,0}, ..., a_{i,i-1}), the coefficients of order i; (1,) for i = 0."""
    return tuple(a_coeff(i, k) for k in range(i)) if i else (1,)


def _exp_recip_fixed(i_lo, i_hi, t, bits):
    """[(F_i, f_i) for i = i_lo..i_hi]: d^i/dt^i e^(1/t) = F_i 2^f_i, t a nonzero mpf.

    With x = 1/t the derivative is (-1)^i e^x Q_i, Q_i = sum_k a_{i,k}
    x^(2i-k) (Q_0 = 1).  t = (+-) c 2^d with c a bc-bit integer, so
    |x| 2^g = 2^bc / c lies in (1, 2] for g = bc + d, and X = floor(2^(wq+bc)
    / c), wq = bits + 32 at a working precision of bits bits, is that
    number at 2^-wq: one integer division.  X_m = |x|^m 2^(m g) at 2^-wq is
    X_(m-1) X >> wq.  Each order puts its terms on the scale of its largest
    power x^top: top = i+1 for g > 0 (|x| <= 1), top = 2i otherwise, and
    top = 0 for i = 0.  Term k is a_{i,k} X_(2i-k) shifted right by
    (2i-k-top) g >= 0 bits, so no integer grows with log |t|, and for t < 0
    it takes the sign (-1)^k of x^(2i-k).  e^x is mpf_exp of 1/t, both
    rounded to nearest at p = bits + 4 + max(0, 1-g) bits, with mantissa e0
    and exponent ex, and F_i = (-1)^i e0 Q, f_i = ex - wq - top g.

    Error bound.  |x| <= 2^(1-g), so rounding 1/t to p bits moves e^x by a
    relative |x| 2^-p, and exp's own error, under one ulp, adds 2^(1-p):
    e0 2^ex is within (|x| + 2) 2^-p <= 2^-(bits+2) relative of e^x.  X
    is low by less than one unit, a relative 2^-wq as X >= 2^wq, so X_m,
    after m - 1 more floors of integers >= 2^wq, is within (2m-1) 2^-wq
    relative, and each shifted term loses one unit more.  The integer Q is
    thus within 5i 2^-wq relative of Q_i(|x|) = sum_k a_{i,k} |x|^(2i-k) in
    units of 2^-(wq + top g), and so of Q_i itself for t > 0, whose terms
    are all positive.  The product e0 Q is exact, so for t > 0 each
    F_i 2^f_i is within 2^-(bits+1) relative of the derivative.
    """
    sign, man, exp, bc = t._mpf_
    g = bc + exp
    p = bits + 4 + max(0, 1 - g)
    x = mpf_rdiv_int(1, t._mpf_, p, round_nearest)
    _, e0, ex, _ = mpf_exp(x, p, round_nearest)
    wq = bits + _GUARD_BITS
    x = (1 << (wq + bc)) // man
    powers = [1 << wq, x]
    for _ in range(2 * i_hi - 1):
        powers.append(powers[-1] * x >> wq)
    out = []
    for i in range(i_lo, i_hi + 1):
        row = _exp_recip_row(i)
        top = 2 * i - (len(row) - 1 if g > 0 else 0)
        q = 0
        for k, a in enumerate(row):
            m = 2 * i - k
            term = a * powers[m] >> (m - top) * g
            q += -term if sign and k % 2 else term
        out.append((-e0 * q if i % 2 else e0 * q, ex - wq - top * g))
    return out


# bits kept beyond the working precision by the fixed-point sums
_GUARD_BITS = 32


def _series_bits(bits):
    """wp of the fixed-point series of _series_sums, laurent.hk_sums and
    laplace._bernoulli_tail at bits bits, for the floors of their terms."""
    return bits + _GUARD_BITS + 2 * _SERIES_LIMIT.bit_length()


def _dyadic(x):
    """(m, e) with x = m / 2^e exactly and e >= 0, for an int, a finite mpf
    or its raw tuple x; m carries the sign of x."""
    if isinstance(x, int):
        return x, 0
    sign, man, exp, bc = x if type(x) is tuple else x._mpf_
    if not man and bc:
        raise ValueError(f"{x} is not a finite number")
    if sign:
        man = -man
    return (man << exp, 0) if exp >= 0 else (man, -exp)


@lru_cache(maxsize=None)  # v below polygamma's budget, h_kernel ~ (digits+5)/2.8
def _em_coefficient(v):
    """B_{2v}/(2v)! as an exact (numerator, denominator) pair."""
    p, q = mp.bernfrac(2 * v)
    return p, q * factorial(2 * v)


@lru_cache(maxsize=None)  # one entry per v and per precision a process uses
def _em_weight(v, wq):
    """(C_v, G_v): C_v = floor(B_{2v}/(2v)! 2^G_v), of wq or wq+1 bits."""
    p, q = _em_coefficient(v)
    g = wq + q.bit_length() - abs(p).bit_length()
    return (p << g) // q, g


def _fixed_head(den, e, shift, s_lo, s_hi, wp):
    """sum_{j<shift} (t+j)^-s for s = s_lo..s_hi >= 2, integers scaled by 2^wp.

    t = den / 2^e exactly, so t + j = (den + j 2^e) / 2^e and 1/(t+j) is
    one integer division; each higher power is one multiply-and-shift.  All
    of them truncate, so each power (t+j)^-s sits below its true value by at
    most 2s units of 2^-wp, or by at most 2s 2^-wp relative to it where it
    exceeds 1.
    """
    one = 1 << (wp + e)
    step = 1 << e
    sums = [0] * (s_hi - s_lo + 1)
    for _ in range(shift):
        x = one // den
        p = x ** s_lo >> (wp * (s_lo - 1))
        sums[0] += p
        for i in range(1, len(sums)):
            p = p * x >> wp
            sums[i] += p
        den += step
    return sums


def polygamma_fixed(n_lo, n_hi, t, prec=DEFAULT_PRECISION):
    """The integer core of polygamma_range: [(P_n, -W_n) for n = n_lo..n_hi].

    psi^(n)(t) = P_n 2^-W_n up to the error below, with n! and the sign
    (-1)^(n+1) included, for integers 1 <= n_lo <= n_hi and real t > 0.

    Each order is n! times the Hurwitz-style sum sum_{j>=0} (t+j)^-(n+1).
    One shift serves every order: explicit head terms move the argument to
    a >= max(2(n_hi+1), dps/2), dps = prec.working_dps, then an
    Euler-Maclaurin tail

        a^(1-s)/(s-1) + a^(-s)/2 + sum_v B_{2v}/(2v)! (s)_{2v-1} a^(1-s-2v)

    with s = n+1 finishes each sum; the first omitted term bounds the error
    since the summand is completely monotone.  The target balances the two
    parts: a head term costs one division and a product per order, about
    what a tail term costs, and a larger a saves ever fewer tail terms.
    At a >= dps/2 the smallest tail term, near v = pi a, is about
    e^(-2 pi a) < 10^-(1.3 dps), so each tail stops after about 0.6 dps
    terms, inside the budget of N = max(300, dps) terms.

    Scales.  shift is the ceiling of target - t rounded to prec.bits, so a
    = t + shift is at most a relative 2^-prec.bits below the target.  It is
    an exact mpf c 2^d with c a b-bit integer, so 2^(beta-1) <= a < 2^beta
    for beta = b + d.  Order n is kept at 2^-W_n, W_n = wq + n beta with wq
    = prec.bits + 16 + 2 bitlen(N), where a^-n is at least 2^wq units: every
    integer has about wq bits whatever t is, and only the exponents W_n
    grow with log t.  U = floor(2^(wq+b) / c) and U2 = floor(2^(wq+2b) /
    c^2) are 2^beta/a and (2^beta/a)^2 at 2^-wq, one division each, and A_n
    = a^-n 2^(n beta) at 2^-wq is U^n, shifted back by wq after each product.

    Head.  When shift > 0, t = den / 2^e and _fixed_head sums every order
    at wp = wq + (n_hi+1) beta bits, where each term exceeds a^-(n_hi+1) >
    2^(wq-wp).  Order n's head is shifted down to 2^-W_n, so over at most
    a < 2^beta terms, each low by at most 2s units of 2^-wp, it is low by
    at most 2s + 1 units of 2^-W_n plus a relative 2s 2^-wp.

    Tail.  It is summed as the bracket a^-n [1/n + u/2 + sum_v c_v
    (s)_{2v-1} u^(2v)] at 2^-wq, with u = 1/a and c_v = B_{2v}/(2v)!.  The
    rising factorial (s)_{2v-1} of each order is an exact integer, advanced
    by two small factors per term.  The rest of term v is shared by every
    order and formed once per v: C_v = floor(c_v 2^G_v) of wq or wq+1 bits
    (_em_weight, kept per v and wq), (2^beta/a)^(2v) as the last one times
    U2 shifted back by wq, and their product shifted back by wq, the
    weight.  Term v of each order is then the weight times (s)_{2v-1},
    shifted right by G_v - wq + 2v beta: one multiply and one shift.  The
    weight is within a relative (2v+4) 2^-wq (2^(1-wq) for C_v and for the
    product, 2^-wq for each U2 and each of the 2v floors), so term v is off
    by at most (2v+4) 2^-wq |T_v| + 1 units, T_v the exact term.  While the
    terms decrease (else the contraction check raises), |T_v| <= T_1 =
    s u^2/12 <= 2^wq/(48 s) <= 2^wq/96 as a >= 2s, so over the at most
    N - 1 terms, with 1/n and u/2 off by 3 units, the bracket is off by at
    most (N-1)(N+4)/96 + N + 2 <= N^2/48 units (N >= 101), against a
    bracket of at least 1/n.  The bracket times A_n, shifted back by wq, is
    the tail at 2^-W_n, within a relative (3n+1) 2^-wq more.

    So the integer head + tail of order n is within n N^2/48 2^-wq + n (2n
    + 11) 2^-wq of the exact partial sum, relatively.  As N < 2^bitlen(N)
    and bitlen(N) >= 9, that is under n 2^-(prec.bits+21) for n <= 512, and
    the exact n! and sign leave that unchanged.  Each order keeps its own
    contraction check, its N-term budget and its relative stop: once a
    term drops below series_stop (head + tail), with the tail at its first
    two terms, all compared in integers: _em_tail's loop, with this stop.
    """
    for n in (n_lo, n_hi):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"derivative order must be an integer >= 1, got {n!r}")
    if n_hi < n_lo:
        raise ValueError(f"need n_lo <= n_hi, got {n_lo!r}, {n_hi!r}")
    t = _as_mpf(t, prec, positive=True)
    target = max(2 * (n_hi + 1), prec.working_dps // 2 + 1)
    gap = mpf_sub(from_int(target), t._mpf_, prec.bits, round_nearest)
    shift = to_int(mpf_ceil(gap)) if t < target else 0
    budget = max(300, prec.working_dps)
    # 34 guard bits under 512 terms, two more each time the budget doubles
    wq = prec.bits + 16 + 2 * budget.bit_length()
    # series_stop = s_num / 2^s_e exactly
    s_num, s_e = prec.dyadic_stop

    def stopper(beta, heads, powers, brackets):
        # series_stop (head + tail) in units of a^-n 2^-wq
        floors = [
            s_num * ((head << wq) // power + bracket) >> s_e
            for head, power, bracket in zip(heads, powers, brackets)
        ]
        return lambda i, v, term, mag: mag < floors[i]

    beta, heads, brackets, powers, failure = _em_tail(
        t, shift, n_lo, n_hi, wq, budget - 1, stopper
    )
    if failure:
        with prec.workdps():
            raise NumericFailure("polygamma", failure[0], n=n_lo + failure[1], t=t)
    out = []
    for n, head, total, power in zip(range(n_lo, n_hi + 1), heads, brackets, powers):
        value = factorial(n) * (head + (total * power >> wq))
        out.append((value if n % 2 else -value, -(wq + n * beta)))
    return out


def _em_tail(t, shift, n_lo, n_hi, wq, last, stopper):
    """polygamma_fixed's head and Euler-Maclaurin tail of sum_{j>=0}
    (t+j)^-(n+1), n = n_lo..n_hi, at 2^-wq and a = t + shift, with at most
    last terms an order: (beta, heads, brackets, powers, failure), order n
    at i = n - n_lo being heads[i] + (brackets[i] powers[i] >> wq) at
    2^-(wq + n beta).  stopper(beta, heads, powers, brackets), called once
    the brackets hold 1/n + u/2, returns done(i, v, term, mag), true where
    order i stops after term v is added.  failure is None or (detail, i):
    the first order whose term grew, or still going after last terms.
    """
    _, c, d, b = mpf_add(t._mpf_, from_int(shift))
    beta = b + d
    orders = range(n_lo, n_hi + 1)
    heads = [0] * len(orders)
    if shift:
        den, e = _dyadic(t)
        wp = wq + (n_hi + 1) * beta
        heads = [
            h >> (n_hi + 1 - n) * beta
            for n, h in zip(orders, _fixed_head(den, e, shift, n_lo + 1, n_hi + 1, wp))
        ]
    one = 1 << wq
    u_scaled = (1 << (wq + b)) // c
    u2_scaled = (1 << (wq + 2 * b)) // (c * c)
    half_u = u_scaled >> (beta + 1)
    powers = [one]
    for _ in range(n_hi):
        powers.append(powers[-1] * u_scaled >> wq)
    del powers[:n_lo]
    brackets = [one // n + half_u for n in orders]
    risings = [n + 1 for n in orders]  # (s)_{2v-1} at v = 1
    done = stopper(beta, heads, powers, brackets)
    u2v = one
    prev = [inf] * len(orders)
    active = list(range(len(orders)))
    for v in range(1, last + 1):
        # c_v (2^beta u)^(2v) at 2^-g, shared by every order
        c_scaled, g = _em_weight(v, wq)
        u2v = u2v * u2_scaled >> wq
        weight = c_scaled * u2v >> wq
        down = g - wq + 2 * v * beta
        still = []
        for i in active:
            term = weight * risings[i] >> down
            mag = abs(term)
            brackets[i] += term
            if done(i, v, term, mag):
                continue
            if mag > prev[i]:
                failure = ("asymptotic tail failed to contract", i)
                return beta, heads, brackets, powers, failure
            s = n_lo + i + 1
            risings[i] *= (s + 2 * v - 1) * (s + 2 * v)
            prev[i] = mag
            still.append(i)
        active = still
        if not active:
            return beta, heads, brackets, powers, None
    return beta, heads, brackets, powers, ("tail budget exhausted", active[0])


def polygamma_range(n_lo, n_hi, t, prec=DEFAULT_PRECISION):
    """[psi^(n)(t) for n = n_lo..n_hi] for integers 1 <= n_lo <= n_hi, real t > 0.

    All orders come from one pass of polygamma_fixed, whose integers are
    within n 2^-(mp.prec+21) relative (n <= 512) of the sum it truncates at
    series_stop; each is rounded once to the working precision here.
    """
    with prec.workdps():
        return [mp.mpf(pair) for pair in polygamma_fixed(n_lo, n_hi, t, prec)]


def polygamma(n, t, prec=DEFAULT_PRECISION):
    """psi^(n)(t) for integer n >= 1 and real t > 0; see polygamma_range."""
    return polygamma_range(n, n, t, prec)[0]


def _series_1f2(x, b1, b2, prec, operation, /, **inputs):
    """sum_n x^n / ((b1)_n (b2)_n) for x >= 0, b1, b2 > 0, rounded to the
    working precision.

    The one positive-term summation behind bessel_i and hyp1f2, at the
    caller's working precision; the sum is _series_sums', within its error
    bound.  Where the series cannot stop within _SERIES_LIMIT terms, raises
    NumericFailure(operation, "series budget exhausted", **inputs).
    """
    (pair,) = _series_sums([x], b1, b2, prec)
    if pair is None:
        raise NumericFailure(operation, "series budget exhausted", **inputs)
    return mp.mpf(pair)


def _series_sums(xs, b1, b2, prec):
    """For each x in xs (ints, mpfs or raw mpf tuples), (S, s) with
    sum_n x^n / ((b1)_n (b2)_n) = S 2^s, low by the bound below, or None
    where the series cannot stop within _SERIES_LIMIT terms.

    Each sum stops once a term falls below the relative threshold and the
    next term ratio is below 1/2, where the geometric tail is dominated by
    the last term.  x, b1 and b2 are exact dyadics (ints or mpfs), so with
    x_i = X_i / 2^e_i, ex = max e_i and b_j = B_j / 2^e_j the term ratio
    x_i / ((b1+n)(b2+n)) is the integer quotient num_i / den_n, num_i =
    X_i 2^(ex - e_i + e1 + e2) and den_n = (B1 + n 2^e1)(B2 + n 2^e2) 2^ex:
    den_n is formed once per term for every argument.  Scaling num_i and
    den_n by the same power of two leaves every floor quotient and every
    comparison below as it is for x_i alone.  Term n is kept relative to
    the first as q_n, with q_0 = 2^wp and q_{n+1} = floor(q_n num_i /
    den_n); both stop tests are exact integer comparisons, and an argument
    leaves the pass once it stops.  When q reaches 2^(2 wp) (terms grow up
    to n ~ sqrt x) q and the sum drop wp bits together, or more if q is
    still at or above 2^(2 wp) after that (a tiny b1 b2 lets the first
    ratios exceed 2^wp).  If even (b1+L)(b2+L) <= 2x, L = _SERIES_LIMIT,
    the ratio test cannot pass within the budget, so that argument is
    given up at once instead of spending the budget on terms that grow.

    Every truncation is one-sided.  In units of the current scale, with Q_n
    the exact term: each division and each rescale lowers q by at most one
    unit, and the terms are unimodal in n with q >= 2^wp after a rescale,
    so over M <= _SERIES_LIMIT terms q_n sits below Q_n by at most
    2M max(1, Q_n 2^-wp) units, and a rescale costs the sum at most one unit
    more.  The sum is at least 2^wp at every scale, so it is low by a
    relative 2^-wp (3M + 2M^2) at most, and

        wp = _series_bits(P) = P + 32 + 2 bitlen(_SERIES_LIMIT)

    bounds that by 2^-(P+29), under one ulp of the working precision,
    for each argument.  P is prec.bits and the threshold prec.dyadic_stop,
    whatever the ambient precision: the sums enter no precision context.
    """
    if not xs:
        return []
    (b1n, e1), (b2n, e2) = _dyadic(b1), _dyadic(b2)
    pairs = [_dyadic(x) for x in xs]
    ex = max(e for _, e in pairs)
    # series_stop = s_num / 2^s_e exactly
    s_num, s_e = prec.dyadic_stop
    wp = _series_bits(prec.bits)
    out = [None] * len(xs)
    last = ((b1n + (_SERIES_LIMIT << e1)) * (b2n + (_SERIES_LIMIT << e2))) << ex
    active = []  # [q, total, shift, num, position] of each unstopped argument
    for i, (xn, e) in enumerate(pairs):
        num = xn << (ex - e + e1 + e2)
        if 2 * num < last:
            active.append([1 << wp, 1 << wp, 0, num, i])
    den = (b1n * b2n) << ex
    for n in range(1, _SERIES_LIMIT + 1):
        if not active:
            break
        after = ((b1n + (n << e1)) * (b2n + (n << e2))) << ex
        still = []
        for state in active:
            q, total, shift, num, i = state
            q = q * num // den
            total += q
            if q << s_e < s_num * total and 2 * num < after:
                out[i] = (total, shift - wp)
                continue
            if q >> 2 * wp:
                s = max(wp, q.bit_length() - 2 * wp)
                q >>= s
                total >>= s
                state[2] = shift + s
            state[0], state[1] = q, total
            still.append(state)
        active = still
        den = after
    return out


def bessel_i(nu, z, prec=DEFAULT_PRECISION):
    """Modified Bessel I_nu(z) for integer nu >= 0 and real z >= 0, by power series.

    sum_j (z/2)^(2j+nu) / (j! (j+nu)!), that is (z/2)^nu/nu! 0F1(; nu+1; z^2/4)
    summed as a 1F2 with lower parameters 1 and nu+1.
    """
    if not isinstance(nu, int) or nu < 0:
        raise ValueError(f"order must be a nonnegative integer, got {nu!r}")
    with prec.workdps():
        z = to_mpf(z)
        if z < 0:
            raise ValueError(f"argument must be nonnegative, got {z}")
        if z == 0:
            return mp.mpf(1) if nu == 0 else mp.mpf(0)
        half = z / 2
        term = half ** nu / mp.factorial(nu)
        return term * _series_1f2(half * half, 1, nu + 1, prec, "bessel_i", nu=nu, z=z)


def hyp1f2(b1, b2, t, prec=DEFAULT_PRECISION):
    """Hypergeometric 1F2(1; b1, b2; t) for b1, b2 > 0 and t >= 0, by power series.

    sum_n t^n / ((b1)_n (b2)_n); integer b1, b2 stay exact in the term ratio.
    """
    with prec.workdps():
        t = to_mpf(t)
        b1, b2 = (b if isinstance(b, int) else to_mpf(b) for b in (b1, b2))
        if b1 <= 0 or b2 <= 0:
            raise ValueError(f"lower parameters must be positive, got {b1}, {b2}")
        if t < 0:
            raise ValueError(f"argument must be nonnegative, got {t}")
        return _series_1f2(t, b1, b2, prec, "hyp1f2", b1=b1, b2=b2, t=t)

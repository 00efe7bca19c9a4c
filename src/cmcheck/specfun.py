"""Special-function engines: polygamma, modified Bessel I, and 1F2 series.

Everything here evaluates at an explicit, caller-supplied precision.  The
policy object is WorkingPrecision: user-facing digits plus a fixed guard,
a relative stop threshold for positive-term series, and the noise floor
against which sign claims are tested.  No function reads ambient mp.dps;
each enters a workdps block and returns a plain mpf.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf

from mpmath import mp

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


@dataclass(frozen=True)
class WorkingPrecision:
    """Precision policy: requested digits, derived guard digits and thresholds.

    digits is the user-facing precision (>= 30).  Internal work runs at
    digits + 15.  Positive-term series stop once a term drops below
    10^-(digits+5) of the running sum; sign checks treat anything within
    10^(-digits+15) of zero as noise.
    """

    digits: int = 50
    # threshold mpfs by (power of ten, mp.prec), each computed on first read
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.digits, int) or self.digits < 30:
            raise ValueError(f"digits must be an integer >= 30, got {self.digits!r}")

    @property
    def working_dps(self):
        return self.digits + GUARD_DIGITS

    def workdps(self):
        """Context manager setting mp.dps to the guarded working precision."""
        return mp.workdps(self.working_dps)

    def _power_of_ten(self, exponent):
        """10^exponent rounded at the current precision, kept per precision."""
        key = (exponent, mp.prec)
        value = self._powers.get(key)
        if value is None:
            value = self._powers[key] = mp.mpf(10) ** exponent
        return value

    @property
    def series_stop(self):
        """Relative term threshold 10^-(digits+5) for positive-term series."""
        return self._power_of_ten(-(self.digits + 5))

    @property
    def noise_floor(self):
        """Magnitude 10^(-digits+15) below which a computed sign is meaningless."""
        return self._power_of_ten(-self.digits + 15)


DEFAULT_PRECISION = WorkingPrecision()


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
    e^(1/t) itself.  t must be nonzero.
    """
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {i!r}")
    with prec.workdps():
        t = to_mpf(t)
        if t == 0:
            raise ValueError("t must be nonzero")
        return _exp_recip_from_core(i, t, mp.exp(1 / t))


def _exp_recip_from_core(i, t, core):
    """(-1)^i core t^(-2i) sum_k a_{i,k} t^k, with core = e^(1/t) given."""
    if i == 0:
        return +core
    acc = mp.mpf(0)
    for k in range(i - 1, -1, -1):
        acc = acc * t + a_coeff(i, k)
    return (-1) ** i * core * acc / t ** (2 * i)


# bits kept beyond mp.prec by the fixed-point sums
_GUARD_BITS = 32


def _dyadic(x):
    """(m, e) with x = m / 2^e exactly and e >= 0, for an int or a finite mpf
    x; m carries the sign of x."""
    if isinstance(x, int):
        return x, 0
    sign, man, exp, bc = x._mpf_
    if not man and bc:
        raise ValueError(f"{x} is not a finite number")
    if sign:
        man = -man
    return (man << exp, 0) if exp >= 0 else (man, -exp)


@lru_cache(maxsize=None)  # polygamma asks for v < 300, h_kernel ~ (digits+5)/2.8
def _em_coefficient(v):
    """B_{2v}/(2v)! as an exact (numerator, denominator) pair."""
    p, q = mp.bernfrac(2 * v)
    return p, q * factorial(2 * v)


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
        for i in range(len(sums)):
            sums[i] += p
            p = p * x >> wp
        den += step
    return sums


def polygamma_range(n_lo, n_hi, t, prec=DEFAULT_PRECISION):
    """[psi^(n)(t) for n = n_lo..n_hi] for integers 1 <= n_lo <= n_hi, real t > 0.

    Each order is n! times the Hurwitz-style sum sum_{j>=0} (t+j)^-(n+1).
    One shift serves every order: explicit head terms move the argument to
    a >= max(10(n_hi+1), ~0.8 dps), the target of the highest order, then an
    Euler-Maclaurin tail

        a^(1-s)/(s-1) + a^(-s)/2 + sum_v B_{2v}/(2v)! (s)_{2v-1} a^(1-s-2v)

    with s = n+1 finishes each sum; the first omitted term bounds the error
    since the summand is completely monotone.  Sign is (-1)^(n+1).

    Both parts are summed in fixed-point integers, all orders in one pass.
    The head uses wp = mp.prec + 32 + (n_hi+1) bitlen(target+1) bits (see
    _fixed_head): each of its terms exceeds a^-(n_hi+1) > 2^(mp.prec+32-wp)
    and is low by at most 2s units of 2^-wp.  The tail is summed as
    a^-n [1/n + u/2 + sum_v B_{2v}/(2v)! (s)_{2v-1} u^(2v)], u = 1/a, with
    wq = mp.prec + 32 bits: (s)_{2v-1} u^(2v) costs one integer division per
    term, and while the terms decrease (else the contraction check raises)
    term v is off by at most 1 + v/12 units, under 2^12 units over the
    whole budget, against a bracket of at least 1/n.  So each order's head
    and tail carry relative errors below n_hi 2^-(mp.prec+20), under one
    ulp of the working precision.  B_{2v}/(2v)! is shared across orders;
    each order keeps its own contraction check, relative stop
    series_stop (head + tail) and 300-term budget.
    """
    for n in (n_lo, n_hi):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"derivative order must be an integer >= 1, got {n!r}")
    if n_hi < n_lo:
        raise ValueError(f"need n_lo <= n_hi, got {n_lo!r}, {n_hi!r}")
    with prec.workdps():
        t = to_mpf(t)
        if t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        orders = range(n_lo, n_hi + 1)
        target = max(10 * (n_hi + 1), int(0.8 * prec.working_dps) + 1)
        shift = max(0, int(mp.ceil(target - t)))
        # t = den / 2^e and a = t + shift = a_den / 2^e, both exactly
        den, e = _dyadic(t)
        a_den = den + (shift << e)
        heads = [mp.mpf(0)] * len(orders)
        if shift:
            wp = mp.prec + _GUARD_BITS + (n_hi + 1) * (target + 1).bit_length()
            heads = [
                mp.mpf((h, -wp))
                for h in _fixed_head(den, e, shift, n_lo + 1, n_hi + 1, wp)
            ]
        ainv = 1 / mp.mpf((a_den, -e))
        wq = mp.prec + _GUARD_BITS
        one = 1 << wq
        a2 = a_den * a_den
        half_u = (one << e) // (2 * a_den)
        scales, sums, floors, pochs = [], [], [], []
        scale = ainv ** n_lo
        for n, head in zip(orders, heads):
            scales.append(scale)
            sums.append(one // n + half_u)
            # series_stop (head + tail) in units of a^-n 2^-wq
            floor = prec.series_stop * (head / scale + mp.mpf(1) / n + ainv / 2)
            floors.append(int(mp.ldexp(floor, wq)))
            pochs.append(((n + 1) << (wq + 2 * e)) // a2)  # (s)_{2v-1} u^(2v) at v = 1
            scale *= ainv
        prev = [inf] * len(orders)
        active = list(range(len(orders)))
        for v in range(1, 300):
            p, q = _em_coefficient(v)
            still = []
            for i in active:
                s = n_lo + i + 1
                term = p * pochs[i] // q
                mag = abs(term)
                if mag > prev[i]:
                    raise NumericFailure(
                        "polygamma", "asymptotic tail failed to contract", n=s - 1, t=t
                    )
                sums[i] += term
                if mag < floors[i]:
                    continue
                pochs[i] = (pochs[i] * (s + 2 * v - 1) * (s + 2 * v) << 2 * e) // a2
                prev[i] = mag
                still.append(i)
            active = still
            if not active:
                break
        else:
            raise NumericFailure(
                "polygamma", "tail budget exhausted", n=n_lo + active[0], t=t
            )
        return [
            (-1) ** (n + 1) * mp.factorial(n) * (head + mp.mpf((total, -wq)) * scale)
            for n, head, total, scale in zip(orders, heads, sums, scales)
        ]


def polygamma(n, t, prec=DEFAULT_PRECISION):
    """psi^(n)(t) for integer n >= 1 and real t > 0; see polygamma_range."""
    return polygamma_range(n, n, t, prec)[0]


def _series_1f2(term, x, b1, b2, prec, operation, /, **inputs):
    """term * sum_n x^n / ((b1)_n (b2)_n) for x >= 0 and b1, b2 > 0.

    The one positive-term summation behind bessel_i, hyp1f2 and
    laplace.kernel_bessel, at the caller's working precision.  Stops once a
    term falls below the relative threshold and the next term ratio is below
    1/2, where the geometric tail is dominated by the last term.  Raises
    NumericFailure(operation, ..., **inputs) once _SERIES_LIMIT terms are spent.

    x, b1 and b2 are exact dyadics (ints or mpfs), so with x = X / 2^ex and
    b_i = B_i / 2^e_i the term ratio x / ((b1+n)(b2+n)) is the integer
    quotient num / den_n, num = X 2^(e1+e2) and den_n = (B1 + n 2^e1)
    (B2 + n 2^e2) 2^ex.  Term n is kept relative to the first as q_n, with
    q_0 = 2^wp and q_{n+1} = floor(q_n num / den_n); both stop tests are
    exact integer comparisons, and term is applied once at the end.  When q
    reaches 2^(2 wp) (terms grow up to n ~ sqrt x) q and the sum drop wp
    bits together, or more if q is still at or above 2^(2 wp) after that
    (a tiny b1 b2 lets the first ratios exceed 2^wp).  If even
    (b1+L)(b2+L) <= 2x, L = _SERIES_LIMIT, the ratio test cannot pass
    within the budget, so it raises at once instead of spending the budget
    on terms that grow.

    Every truncation is one-sided.  In units of the current scale, with Q_n
    the exact term: each division and each rescale lowers q by at most one
    unit, and the terms are unimodal in n with q >= 2^wp after a rescale,
    so over M <= _SERIES_LIMIT terms q_n sits below Q_n by at most
    2M max(1, Q_n 2^-wp) units, and a rescale costs the sum at most one unit
    more.  The sum is at least 2^wp at every scale, so it is low by a
    relative 2^-wp (3M + 2M^2) at most, and

        wp = mp.prec + 32 + 2 bitlen(_SERIES_LIMIT)

    bounds that by 2^-(mp.prec+29), under one ulp of the working precision.
    """
    (xn, ex), (b1n, e1), (b2n, e2) = _dyadic(x), _dyadic(b1), _dyadic(b2)
    num = xn << (e1 + e2)
    # series_stop = s_num / 2^s_e exactly
    s_num, s_e = _dyadic(prec.series_stop)
    den = ((b1n + (_SERIES_LIMIT << e1)) * (b2n + (_SERIES_LIMIT << e2))) << ex
    if 2 * num >= den:
        raise NumericFailure(operation, "series budget exhausted", **inputs)
    wp = mp.prec + _GUARD_BITS + 2 * _SERIES_LIMIT.bit_length()
    q = total = 1 << wp
    shift = 0
    den = (b1n * b2n) << ex
    for n in range(1, _SERIES_LIMIT + 1):
        q = q * num // den
        total += q
        den = ((b1n + (n << e1)) * (b2n + (n << e2))) << ex
        if q << s_e < s_num * total and 2 * num < den:
            return term * mp.mpf((total, shift - wp))
        if q >> 2 * wp:
            s = max(wp, q.bit_length() - 2 * wp)
            q >>= s
            total >>= s
            shift += s
    raise NumericFailure(operation, "series budget exhausted", **inputs)


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
        return _series_1f2(term, half * half, 1, nu + 1, prec, "bessel_i", nu=nu, z=z)


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
        return _series_1f2(mp.mpf(1), t, b1, b2, prec, "hyp1f2", b1=b1, b2=b2, t=t)

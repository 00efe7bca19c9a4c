"""Laurent-tail calculus for the remainder of e^(1/z) past its principal part.

The remainder of order k is

    H_k(z) = e^(1/z) - sum_{m=0}^{k} z^-m / m! = sum_{m=k+1}^inf z^-m / m!,

evaluated from the convergent tail on the right where 1/z < 2(k+1), and
by the subtraction on the left only from that seam on, where the head's
terms increase and it cancels at most log2((k+3)/2) bits (it cancels
catastrophically once z is large).
Differentiated termwise, every order

    H_k^(n)(t) = (-1)^n sum_{m>k} (m)^(n) t^(-m-n) / m!

is a positive-term series with integer multipliers, and the Lah numbers
make each a fixed positive combination of the order-0 tail and a short
exact prefix: hk_sums takes that tail in fixed-point integers, from its
series or, past the seam, from one exponential, derives every order from
it with a proven radius, and hk_table turns the results into mpfs.  The
scaled family d^n/dt^n [t^r H_k(t)] for real r is built from those integer
sums by the Leibniz rule in cmdeg.
Also hosts h(t) = e^(1/t) - psi'(t) and its derivatives, the difference of
the two engines from specfun as integer balls (h_balls): h_table rounds
the balls of a table at its own digits to mpfs, taken again at more digits
where a ball is too wide (specfun.refine).  The first pass of the h scans
takes balls whose radius covers h_table's value at any digits too, from
the sign rung (h_sign_balls): polygamma_fixed's Euler-Maclaurin loop,
stopped once each ball excludes 0, at widths that grow with the bits h^(i)
cancels at t (_sign_width).  Past the rung's cap the h scans take the
balls of the table at the digits asked for (h_balls).
"""

from functools import lru_cache
from math import comb, factorial
from operator import mul
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import from_int, mpf_div, mpf_exp, round_nearest, to_int

from .specfun import (
    DEFAULT_PRECISION,
    GUARD_DIGITS,
    NumericFailure,
    _GUARD_BITS,
    _SERIES_LIMIT,
    _as_mpf,
    _at_digits,
    _dyadic,
    _em_tail,
    _exp_recip_fixed,
    polygamma_fixed,
    refine,
    to_mpf,
)


def _validate_order(k):
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"remainder order must be a nonnegative integer, got {k!r}")


def _budget_exhausted(k, t, prec, route="series"):
    with prec.workdps():  # so that t prints at prec's working digits
        return NumericFailure("hk_sums", f"{route} budget exhausted", k=k, t=t)


class HkSums(NamedTuple):
    """The fixed-point sums of hk_table before any mpf arithmetic.

    With T_n = sum_{m>k} (m)^(n) t^(k+1-m) (k+1)!/m! the exact sum of order
    n relative to its first term, S_n 2^exp <= T_n <= (S_n + radii[n]) 2^exp,
    and

        H_k^(n)(t) = (-1)^n lead t^-n T_n,   lead = _hk_lead(k, t) > 0.
    """

    sums: list
    radii: list
    exp: int


def _hk_lead(k, t):
    """lead = t^-(k+1)/(k+1)! for an mpf t > 0, at the current precision.

    The first term of H_k(t), which HkSums leaves out: hk_table and the
    factors of cmdeg.ScaledTailOracle apply it only where they build a value.
    """
    return (1 / t) ** (k + 1) / mp.factorial(k + 1)


@lru_cache(maxsize=None)  # one entry per max_order that hk_sums is asked for
def _lah_rows(max_order):
    """Rows n = 1..max_order of the unsigned Lah numbers, as pairs (row, sum).

    row = (L(n,1), ..., L(n,n)) with L(n,j) = C(n-1,j-1) n!/j!, which carry
    falling factorials to rising ones: (m)^(n) = sum_j L(n,j) m (m-1) ...
    (m-j+1) (Riordan, An Introduction to Combinatorial Analysis, 1958).
    """
    rows = []
    for n in range(1, max_order + 1):
        row = tuple(
            comb(n - 1, j - 1) * factorial(n) // factorial(j) for j in range(1, n + 1)
        )
        rows.append((row, sum(row)))
    return tuple(rows)


def hk_sums(k, t, max_order, prec=DEFAULT_PRECISION):
    """The integer core of hk_table: S_0..S_max_order, their radii and scale.

    With x = 1/t and q_m = x^(m-k-1) (k+1)!/m! for every m >= 0, T_n =
    sum_{m>k} (m)^(n) q_m.  The Lah numbers of _lah_rows and m (m-1) ...
    (m-j+1) q_m = x^j q_(m-j) give, for n >= 1,

        T_n = sum_{j=1..n} L(n,j) x^j (T_0 + P_j),
        x^j P_j = x^j sum_{i=max(0,k+1-j)..k} q_i
                = sum_{d=1..min(j,k+1)} (k+1)_d x^(j-d),

    with (k+1)_d = (k+1)!/(k+1-d)!.  Every coefficient is positive, so
    nothing cancels.  T_0 = (k+1)! x^-(k+1) (e^x - sum_{m<=k} x^m/m!) comes
    by one of two routes, split at the seam x = 2(k+1); both leave an S_0 >=
    2^wp, wp = prec.bits + 32 + 2b (b = bitlen(_SERIES_LIMIT)), a tail bound
    q <= S_0 and exp with

        S_0 <= T'_0 <= S_0 + q + eps S_0,                           (*)

    writing T'_n = T_n 2^-exp and eps = 2^-(prec.bits+29) (1 + 2^-prec.bits).
    Both routes first take t = den / 2^e exactly and the series route's
    first stop m_min (_hk_first_stop), whose NumericFailure of an m_min at
    or past the series budget therefore comes before any sum; the exp route
    sums no series and refuses only past its own budget.

    Series route, x < 2(k+1).  The order-0 terms are kept relative to the
    first as q_(k+1) = 2^wp and q_(m+1) = floor(q_m 2^e / (den (m+1))), one
    add per term.  Whenever q reaches 2^(2 wp) (terms grow up to m ~ 1/t) q
    and the sum drop wp bits together; exp = shift - wp is their scale.  The
    sum ends at the first m >= m_min with q_m < series_stop S_0, tested in
    integers.  m_min = k + 3 + max(max_order, ceil(1.5/t)), the first stop
    of the termwise sum of every order at r = 0 (past max_order, and where
    the term ratio is safely below 1), is raised to where the ratio x/(m+1)
    is at most 1/2 (_hk_first_stop).  Every truncation is one-sided: each
    division and each rescale lowers q by at most one unit of the current
    scale, and the terms are unimodal in m with q >= 2^wp after a rescale,
    so over M < _SERIES_LIMIT < 2^b terms q_m sits below
    the exact Q_m by at most 2M max(1, Q_m 2^-wp) units, and a rescale costs
    the sum one unit more.  S_0 is thus low by a relative delta <= 2^-wp
    (3M + 2M^2) < 2^-(prec.bits+30).  The ratio is at most 1/2 past the stop
    M, so the tail past it is at most Q_M <= q_M + delta P, with P <= S_0 /
    (1 - delta) the exact partial sum: (*) holds with q = q_M, as T'_0 - S_0
    <= q_M + 2 delta P.

    Exp route, x >= 2(k+1).  There the head's terms increase, so head =
    sum_{m<=k} x^m/m! <= (k+1) x^k/k! <= (k+1)/2 x^(k+1)/(k+1)!, and the
    tail e^x - head is at least 2 e^x / (k+3): the subtraction cancels at
    most log2((k+3)/2) bits.  _hk_exp_parts gives e^x ~ E 2^g, E a p-bit
    integer, p = prec.bits + 34 + bitlen(k+3), within 1.52 units of 2^g (its
    docstring), and ceil(head 2^-g) exactly; D = E - 2 - ceil(head 2^-g) is
    below (e^x - head) 2^-g by less than 4.52 units, a relative
    5 (k+3) 2^-p < 2^-(prec.bits+31) of it.  With x^-(k+1) = den^(k+1)
    2^-(e(k+1)) exact, N = (k+1)! den^(k+1) D is below T_0 2^(e(k+1) - g)
    by that relative amount, and S_0 = N shifted to wp + 1 bits, floored,
    loses one unit, 2^-wp S_0 more: (*) holds with q = 0.  No term is
    summed, so series_stop does not enter.

    Derived orders.  t = den / 2^e, and X = floor(2^(W+e) / den) with W =
    wp + bitlen(den) - e >= 0 (x < 2^17 on the series route, and the exp
    route's budget), so x 2^W >= 2^wp and X 2^-W lies in [x (1 - 2^-wp),
    x].  At F = 32 fraction bits below the unit 2^exp, u_0 = S_0 2^F and

        u_j = floor(u_(j-1) X 2^-W) + floor((k+1)_j 2^(F-exp)) [j <= k+1],
        v_0 = q 2^F,   v_j = ceil(v_(j-1) (X+1) 2^-W),

    with (X+1) 2^-W in [x, x (1 + 2^-wp)].  Then S_n = floor(sum_j L(n,j)
    u_j 2^-F) and tail_n = ceil(sum_j L(n,j) v_j 2^-F), multiplies and
    shifts only.  Where q = 0, as on the exp route, every v_j and tail_n is
    0 exactly, so the upper chain and its combinations are skipped.  Both
    chains are one-sided: with y_j = x^j (S_0 + P_j
    2^-exp), u_j 2^-F <= y_j, and v_j 2^-F >= x^j q.  Each step costs a
    relative 2^-wp of at most y_j and two floors; as y_j grows by at least
    x per step and y_j >= x^j 2^wp, unrolling gives for both chains an
    error under 2j 2^-wp y_j + 2j 2^-F units (x^j q <= y_j as q <= S_0).
    Summed with the weights L(n,j), whose sum is l_n, and with the
    sums Y_n = sum_j L(n,j) y_j <= T'_n:

        Y_n < S_n + 1 + 2n 2^-wp Y_n + 2n l_n 2^-F,
        tail_n < sum_j L(n,j) x^j q + 2n 2^-wp Y_n + 2n l_n 2^-F + 1.

    Radii.  S_n <= Y_n <= T'_n, and by (*) T'_n - S_n <= tail_n + (Y_n - S_n)
    + eps Y_n.  max_order < _SERIES_LIMIT < 2^18, so 2n 2^-F < 2^-13 and
    eps + 2n 2^-wp < 2^-(prec.bits+29) (1 + 2^-20); with Y_n < (1 + 2^-12)
    (S_n + l_n) that is T'_n - S_n < tail_n + 1 + 2^-13 l_n + (1 + 2^-11)
    z/2, z = (S_n + l_n) 2^-(prec.bits+28).  floor(z) + l_n exceeds 2^-13 l_n
    + (1 + 2^-11) z/2 for every z >= 0 and l_n >= 1 (floor(z) >= z/2 from
    z = 1 on), so

        radii[n] = tail_n + floor((S_n + l_n) 2^-(prec.bits+28)) + 1 + l_n,

    and radii[0] = q + floor(S_0 2^-(prec.bits+28)) + 1 directly from (*).
    Each order's relative error is thus at most order 0's, as its tail is
    under q / S_0 times Y_n plus a few units.
    """
    _validate_order(k)
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError(f"max_order must be a nonnegative integer, got {max_order!r}")
    t = _as_mpf(t, prec, positive=True)
    den, e, m_min = _hk_first_stop(k, t, max_order, prec)
    wp = _hk_scale_bits(prec.bits)
    if m_min is None:
        total, exp = _hk_exp_sum(k, den, e, wp, prec.bits)
        q = 0
    else:
        total, q, exp = _hk_series_sum(k, t, den, e, m_min, prec, wp)
    # X = 1/t at 2^-cut, an integer of wp + 1 bits; F = _GUARD_BITS fraction bits
    bits = wp + den.bit_length()
    recip = (1 << bits) // den
    above = recip + 1
    cut = bits - e
    frac = _GUARD_BITS
    lift = frac - exp
    low = total << frac
    high = q << frac
    lows = []
    highs = []
    falling = 1
    for j in range(1, max_order + 1):
        low = low * recip >> cut
        if j <= k + 1:
            falling *= k + 2 - j
            low += falling << lift if lift >= 0 else falling >> -lift
        lows.append(low)
        if q:
            high = -(-high * above >> cut)
            highs.append(high)
    rel = prec.bits + 28
    sums = [total]
    radii = [q + (total >> rel) + 1]
    for row, weight in _lah_rows(max_order):
        derived = sum(map(mul, row, lows)) >> frac
        tail = -(-sum(map(mul, row, highs)) >> frac) if q else 0
        sums.append(derived)
        radii.append(tail + (derived + weight >> rel) + 1 + weight)
    return HkSums(sums, radii, exp)


def _hk_series_sum(k, t, den, e, m_min, prec, wp):
    """(S_0, q_M, exp) of hk_sums' series route at t = den / 2^e."""
    # series_stop = s_num / 2^s_e exactly, so the stop test is in integers
    s_num, s_e = prec.dyadic_stop
    q = total = 1 << wp
    shift = 0
    m = k + 1
    while m < m_min:
        m += 1
        q = (q << e) // (den * m)
        total += q
        if q >> 2 * wp:
            q >>= wp
            total >>= wp
            shift += wp
    # past m_min the terms at least halve, so q needs no rescale
    while q << s_e >= s_num * total:
        m += 1
        if m >= _SERIES_LIMIT:
            raise _budget_exhausted(k, t, prec)
        q = (q << e) // (den * m)
        total += q
    return total, q, shift - wp


def _hk_exp_side(k, den, e):
    """Whether hk_sums takes the exp route at t = den / 2^e: x = 1/t >= 2(k+1)."""
    return (2 * k + 2) * den <= 1 << e


def _hk_exp_parts(k, den, e, bits):
    """(E, H, g) for hk_sums' exp route at t = den / 2^e, x = 1/t >= 2(k+1):
    e^x ~ E 2^g with E a p-bit integer, p = bits + 34 + bitlen(k+3), and
    H = ceil(2^-g sum_{m<=k} x^m/m!).

    1/t is rounded to p + bitlen(floor(x)) bits, within 2^-(p+1) of x, which
    moves e^x by under 0.51 2^-p relative; exp's own error is under one ulp.
    As e^x < (2^p + 2) 2^g, E 2^g is within 1.52 units of 2^g of e^x.  The
    head is the exact rational n_0 / (k! den^k), by Horner's rule n_k = 1,
    n_m = (k!/m!) den^(k-m) + 2^e n_(m+1), so H is an integer ceiling,
    taken in two steps for g >= 0, as g grows with x.
    """
    p = bits + 34 + (k + 3).bit_length()
    bits = p + ((1 << e) // den).bit_length()
    x = mpf_div((0, 1, e, 1), from_int(den), bits, round_nearest)
    _, man, g, size = mpf_exp(x, p, round_nearest)
    man <<= p - size
    g -= p - size
    num = fact = power = 1
    for m in range(k - 1, -1, -1):
        fact *= m + 1
        power *= den
        num = fact * power + (num << e)
    denom = fact * power
    if g >= 0:
        # ceil(a / (b 2^g)) = ceil(ceil(a / 2^g) / b), with no 2^g formed
        up = -(-num >> g)
        head = -(-up // denom)
    else:
        head = -((-num << -g) // denom)
    return man, head, g


def _hk_exp_sum(k, den, e, wp, bits):
    """(S_0, exp) of hk_sums' exp route at t = den / 2^e."""
    man, head, g = _hk_exp_parts(k, den, e, bits)
    big = factorial(k + 1) * den ** (k + 1) * (man - 2 - head)
    shift = big.bit_length() - wp - 1
    total = big >> shift if shift >= 0 else big << -shift
    return total, g - e * (k + 1) + shift


def _hk_first_stop(k, t, max_order, prec):
    """(den, e, m_min) of hk_sums at an mpf t = den / 2^e > 0; m_min is None
    on the exp route (_hk_exp_side), which sums no series.

    m_min = k + 3 + max(max_order, ceil(1.5/t)) with ceil(1.5/t) taken as
    ceil(3 2^e / (2 den)), raised to ceil(2/t) - 1, from where x/(m+1) <=
    1/2.  A first stop at or past the series budget can never be reached, so
    it raises at once instead of spending the budget.  The exp route has a
    budget of its own: k + 3 + max_order below the series budget, as its
    work and hk_sums' radius proof grow with k and max_order, and e <= wp +
    bitlen(den), so x < 2^(wp+1) at wp = _hk_scale_bits(prec.bits) and 1/t fits the
    fixed-point reciprocal of the derived orders.
    """
    den, e = _dyadic(t)
    if _hk_exp_side(k, den, e):
        wp = _hk_scale_bits(prec.bits)
        if k + 3 + max_order >= _SERIES_LIMIT or e > wp + den.bit_length():
            raise _budget_exhausted(k, t, prec, "exp route")
        return den, e, None
    m_min = max(
        k + 3 + max(max_order, -((-3 << e) // (2 * den))), -((-2 << e) // den) - 1
    )
    if m_min >= _SERIES_LIMIT:
        raise _budget_exhausted(k, t, prec)
    return den, e, m_min


def _hk_scale_bits(bits):
    """wp of hk_sums at bits bits: S_0 >= 2^wp at every scale."""
    return bits + _GUARD_BITS + 2 * _SERIES_LIMIT.bit_length()


def hk_table(k, t, max_order, prec=DEFAULT_PRECISION):
    """[H_k^(n)(t) for n = 0..max_order] for t > 0, all orders in one pass.

    H_k^(n)(t) = (-1)^n t^-n sum_{m>k} (m)^(n) t^-m / m!, with (m)^(n) =
    m (m+1) ... (m+n-1) the rising factorial: every order is a positive-term
    series with integer multipliers, which hk_sums derives from one
    fixed-point value of the order-0 tail: the series summed where 1/t <
    2(k+1), one exponential less the head of its Taylor series from that
    seam on.  The sign, t^-n and the lead factor are applied here, once per
    order, so each entry is within a relative 2^-(mp.prec+27) plus the
    truncated tail (none past the seam) of the exact value before those few
    roundings; no order's truncated tail is relatively larger than order 0's.
    """
    with prec.workdps():
        core = hk_sums(k, t, max_order, prec)
        t = to_mpf(t)
        invt = 1 / t
        scale = _hk_lead(k, t)
        out = []
        for total in core.sums:
            out.append(scale * mp.mpf((total, core.exp)))
            scale *= -invt
        return out


def remainder_hk(k, z, prec=DEFAULT_PRECISION):
    """H_k(z) = sum_{m>k} z^-m / m! for z > 0; strictly positive."""
    return hk_table(k, z, 0, prec)[0]


def remainder_hk_derivative(k, n, t, prec=DEFAULT_PRECISION):
    """d^n/dt^n H_k(t) = (-1)^n sum_{m>k} (m)_n t^(-m-n) / m! for t > 0."""
    return hk_table(k, t, n, prec)[n]


def h_table(i_lo, i_hi, t, prec=DEFAULT_PRECISION):
    """[h^(i)(t) for i = i_lo..i_hi], 0 <= i_lo <= i_hi, t > 0, all orders in
    one pass at each precision.

    h^(i) = (d^i/dt^i e^(1/t)) - psi^(i+1)(t).  Both parts come as integers
    at binary scales: _exp_recip_fixed takes e^(1/t) once and the
    closed-form a_{i,k} polynomial of each order in fixed point, and one
    polygamma_fixed call supplies every psi^(i+1).  Each order shifts the
    part at the finer scale down to the coarser one, subtracts in integers
    and builds one mpf.  The two engines share no code, so their agreement
    downstream is a real cross-check.

    Error bound.  With E the exp part and P = psi^(i+1)(t), the integers
    give E within 2^-(mp.prec+1) relative (_exp_recip_fixed: one rounding
    of mp.exp and a few units per fixed-point power) and P within
    (i+1) 2^-(mp.prec+21) relative (polygamma_fixed, less its truncation at
    the series stop S of its policy).  Both integers have at least wq -
    log2(i+1) bits, wq >= mp.prec + 32, so shifting the finer one to the
    coarser scale costs under (i+1) 2^-wq of the part at that scale, and
    the mpf conversion rounds h^(i) once.  So for i < 512 one pass gives
    h^(i) within

        2^-mp.prec (|h^(i)| + |E| + |P|) + S |P|.

    The subtraction cancels about log10((|E| + |P|) / |h^(i)|) digits,
    about 3 log10 t at large t for i >= 1, and S is relative to |P|, so P
    is summed one digit further per bit of t's exponent, at most
    GUARD_DIGITS: one pass settles every table to about t = 3e3.  The pass
    is the integer mid of _h_balls at its level, whose radius covers this
    bound; where any order's radius exceeds |mid| 10^-(digits+3) the table
    is taken again at raised digits (specfun.refine) and rounded at prec.
    A table that three raises cannot settle is refused with NumericFailure
    ("h_table", ..., t=t): for i >= 1 from about t = 10^(7 digits/3 + 4).
    """
    if not isinstance(i_lo, int) or not isinstance(i_hi, int) or not 0 <= i_lo <= i_hi:
        raise ValueError(f"need integers 0 <= i_lo <= i_hi, got {i_lo!r}, {i_hi!r}")
    t = _as_mpf(t, prec)
    more = min(max(t._mpf_[2] + t._mpf_[3], 0), GUARD_DIGITS)

    def evaluate(level):
        psi = _at_digits(level, level.digits + more)
        balls = _h_balls(i_lo, i_hi, t, level, psi)
        return balls, [(mid, rad) for mid, rad, _ in balls]

    balls = refine(evaluate, prec, "h_table", t=t)
    with prec.workdps():
        return [mp.mpf((mid, x)) for mid, _, x in balls]


def h_balls(i_lo, i_hi, t, prec=DEFAULT_PRECISION):
    """[(H_i, R_i, x_i) for i = i_lo..i_hi]: the balls of the table at prec,
    whose [H_i - R_i, H_i + R_i] 2^x_i holds the exact h^(i)(t) and
    h_table(i_lo, i_hi, t, prec)[i - i_lo] alike; a series stop above 2^-80
    raises NumericFailure.  The h scans' row past the sign rung's cap, they
    also judge a sign left undecided.  t is rounded once, at prec.
    """
    return _h_balls(i_lo, i_hi, _as_mpf(t, prec), prec, prec)


# the sign rung of the h scans (h_sign_balls): the bits of its e^(1/t)
# part wherever they suffice, its cap on Euler-Maclaurin terms and on
# orders, and the point a = t + shift that at most three head terms reach
_SIGN_EXP_BITS = 64
_SIGN_TERMS = 40
_SIGN_ORDERS = 64
_SIGN_TARGET = 6


def _h_cancelled_bits(t, less=0):
    """The bits that h^(i)(t), i >= 1, cancels of d^i/dt^i e^(1/t) at large
    t, or with less that h(t) - 1 cancels of e^(1/t): the bit length of 6
    T^3 (24 T^4), T = lead 2^drop >= t the mpf t rounded up to 32 bits, as
    that of 6 lead^3 plus 3 drop.  At large t |d/dt e^(1/t)| / |h'(t)| = 6
    t^3 (1 - 1/(4t) + ...), order i's ratio 144 t^3 / ((i+1)(i+2)(i+3)) is
    smaller for i > 1, and e^(1/t) / (h(t) - 1) = 24 t^4 (1 + O(t^-2)).
    """
    _, man, exp, bc = t._mpf_
    lead = man << 32 - bc if bc <= 32 else -(-man >> bc - 32)
    ratio, power = (24, 4) if less else (6, 3)
    return (ratio * lead**power).bit_length() + power * (bc + exp - 32)


def _sign_width(top, t, prec, less=0):
    """q, the bits of h_sign_balls' exp part at t (its fixed point has q +
    32), or None past the rung's cap.

    A row of top >= 1, or with less, cancels c = _h_cancelled_bits(t, less)
    bits, any other none: |h^(i)| (|h - 1|) is about 2^-c E or more, E the
    exp part, and the psi part n! z is about E, or psi'(t) <= 2^(2-g) E for
    h - 1, 2^(g-1) <= t < 2^g.  The radius is about 2^-q E, the psi part's
    share under 2^-20, and the widening for h_table's value, 2^(4-P) (E +
    n! z) + S n! z, so the ball excludes 0 by 16 where 2^(c+4-q) + 2^(c+9-P)
    + 2^y S stays below 1, y = c + 5, or c + 7 - g for h - 1.  So q = 64
    where c + 4 <= 64, the rows the rung decided at 64 bits, else q = c + 4
    + k for the least k >= 1 with 2^-k at most room = 1 - 2^(c+9-P) - 2^y S
    - 2^-8.  Where room <= 0 (at 30 digits from t = 7.6e10 for h^(i) and
    2.6e10 for h - 1, at 50 from 3.2e17 and 2.4e15) the row is declined.
    """
    g = t._mpf_[2] + t._mpf_[3]
    # below t = 2^12 no row cancels more than 53 bits, so no count is made
    c = _h_cancelled_bits(t, less) if (top or less) and g > 12 else 0
    if c + 4 <= _SIGN_EXP_BITS:
        return _SIGN_EXP_BITS
    if c + 9 >= prec.bits:
        return None
    s_num, s_e = prec.dyadic_stop
    y = c + 7 - g if less else c + 5
    room = (1 << s_e) - (1 << s_e + c + 9 - prec.bits) - (s_num << y) - (1 << s_e - 8)
    if room <= 0:
        return None
    return c + 5 + s_e - room.bit_length()


def h_sign_balls(top, t, prec=DEFAULT_PRECISION, less=0):
    """[(H_i, R_i, x_i) for i = 0..top]: balls that hold the exact h^(i)(t)
    and h_table(0, top, t, prec)[i] alike, as h_balls' do, each summed only
    until it excludes 0 by a factor of 16; with less = 1 and top = 0, the
    ball of h(t) - 1 and of the trigamma margin at prec.  None where any
    order stays undecided, where top >= _SIGN_ORDERS, where prec's series
    stop S is 0 or above 2^-80, and, before any sum, past the rung's cap
    (_sign_width).  The first rung of the h scans, beneath the tables at
    prec.

    (-1)^i h^(i)(t) = E - n! z with n = i + 1, E the exp part from
    _exp_recip_fixed at q = _sign_width(top, t, prec, less) bits, 64 or
    more as t grows, within 2^-(q+1) E, and z = zeta(n+1, t) = sum_{j<shift}
    (t+j)^-s + a^-n B at s = n + 1, a = t + shift exact, shift = min(3,
    ceil(6 - t)) head terms or none, and

        B = 1/n + w/2 + sum_{v=1..V} T_v + rem,  T_v = c_v (s)_(2v-1) w^(2v),

    w = 1/a, c_v = B_2v/(2v)!: rem lies between 0 and T_(V+1), as the summand
    is completely monotone (polygamma_fixed's stop rests on the same fact).

    Radius, counting every floor.  The integers are those of _em_tail,
    polygamma_fixed's loop, at wq = q + 32 >= 96 bits, with v <=
    _SIGN_TERMS = 40 and n <= 64: the powers A_n of 2^beta/a at 2^-wq are
    low by a relative (2n - 1) 2^-wq < 2^(7-wq), so the true A' <= A_n (1 +
    2^(8-wq)); term_v is within (2v+4) 2^-wq |T_v| + 1 <= 2^(7-wq) |T_v| +
    1 units of 2^-wq of T_v 2^wq, so |T_v| 2^wq <= (|term_v| + 1) (1 +
    2^(8-wq)); 1/n and w/2 are within 3 units.  With V terms summed and m
    the sum of every |term_v| formed (v <= V + 1), the bracket's sum b is
    thus within

        e_B = |term_(V+1)| + V + 7 + floor(m 2^(9-wq))

    units of B 2^wq, and the tail floor(b A_n 2^-wq) within 1 + 2^-wq A'
    (e_B + |b| 2^(8-wq)) <= floor(K A_n 2^(1-wq)) + 2 units of a^-n B
    2^W_n, W_n = wq + n beta, K = e_B + floor(|b| 2^(8-wq)) + 1, as A' <=
    2 A_n.  The head (_fixed_head at 2^-wp, wp >= W_n) has at most three
    powers, each low by 2s units or 2s 2^-wp of itself, and is shifted to
    2^-W_n with one floor: within 6s + 1 units and 6s 2^-wp <= 2^(9-wq) of
    itself (s <= 65), so under floor(head 2^(10-wq)) + 6s + 2.  So z 2^W_n
    lies within

        R_n = floor(K A_n 2^(1-wq)) + floor(head 2^(10-wq)) + 6s + 4

    of head + tail.  At the coarser scale 2^x of the two parts, each shifted
    there with one floor to e and p: E within floor(e 2^-q) + 3 units
    (2^-(q+1) E, and the shift), n! z within floor(n! R_n 2^-(x+W_n)) + 2.
    Their sum r bounds the distance of (e - p) 2^x from (-1)^i h^(i), so
    n! z <= p + r and E + n! z <= e + p + r units.  h_table's value at
    prec, P = prec.bits, is within 2^(1-P) (E + n! z) + S n! z of h^(i)
    (its error bound), and the trigamma margin's within 2^(2-P) (E + n! z)
    more, for its rounding and its unit: widened by floor((e + p + r)
    2^(4-P)) + floor(S w) + 2, the ball holds both, with w = p + r, or at
    q = 64 the larger e + p + r that the rung has always taken there.  For
    less, 1 is taken from e - p, or is one more unit of radius where 2^x >=
    2.  No step asks more of q than q >= 64 and wq >= 96, so the widths may
    grow with t.  An order adds terms until 16 times its radius is at most
    |e - p| (_em_tail's stop), and declines where a term grows, or past 40
    terms.
    """
    s_num, s_e = prec.dyadic_stop
    if not s_num or s_num << 80 > 1 << s_e or top >= _SIGN_ORDERS:
        return None
    t = _as_mpf(t, prec, positive=True)
    q = _sign_width(top, t, prec, less)
    if q is None:
        return None
    wq = q + _GUARD_BITS
    exps = _exp_recip_fixed(0, top, t, q)
    raw = t._mpf_
    # floor(t) for t < 8, else no head term
    shift = max(0, min(3, _SIGN_TARGET - to_int(raw))) if raw[2] + raw[3] < 4 else 0
    bits = prec.bits
    balls = [None] * (top + 1)
    mags = [0] * (top + 1)  # per order, the sum of every |term| formed

    def stopper(beta, heads, powers, brackets):
        parts = []  # per order, the parts fixed before the tail
        for n, (f, f_exp), head, power in zip(range(1, top + 2), exps, heads, powers):
            x = max(f_exp, -(wq + n * beta))
            down, e = x + wq + n * beta, abs(f) >> x - f_exp
            fixed = (head >> wq - 10) + 6 * n + 10
            parts.append((head, power, factorial(n), down, e, x, fixed))

        def done(i, v, term, mag):
            # order i's ball with term v omitted, kept if it excludes 0 by 16
            head, power, fact, down, e, x, fixed = parts[i]
            b = brackets[i] - term
            mags[i] += mag
            k = mag + v + 7 + (mags[i] >> wq - 9) + (b >> wq - 8)
            p = fact * (head + (b * power >> wq)) >> down
            rad = (e >> q) + 3 + (fact * ((k * power >> wq - 1) + fixed) >> down) + 2
            size = e + p + rad
            psi = p + rad if q > _SIGN_EXP_BITS else size
            rad += (size >> bits - 4) + (s_num * psi >> s_e) + 2
            mid = e - p
            if less:
                mid, rad, _ = _less_one(mid, rad, x)
            if rad << 4 > abs(mid):
                return False
            balls[i] = (-mid if i % 2 else mid), rad, x
            return True

        return done

    failure = _em_tail(t, shift, 1, top + 1, wq, _SIGN_TERMS, stopper)[-1]
    return None if failure else balls


def _less_one(mid, rad, x):
    """The ball (mid, rad, x) less 1: 1 taken from mid, or where the unit 2^x
    is 2 or more one more unit of radius, so that no integer as large as the
    ball's value (h's is about e^(1/t)) is formed."""
    return (mid, rad + 1, x) if x > 0 else (mid - (1 << -x), rad, x)


def _h_balls(i_lo, i_hi, t, ball, psi):
    """h_balls' integers for an mpf t: E_i 2^x_i ~ d^i/dt^i e^(1/t) from
    _exp_recip_fixed at ball's working precision, of p >= 153 bits, and
    P_i 2^x_i ~ psi^(i+1)(t) from polygamma_fixed at psi, of P >= p bits,
    each pair shifted to the coarser of its two scales, and H_i = E_i -
    P_i.  h_balls passes its prec as both; h_table passes a level and the
    policy its polygamma runs at, and takes the mids as its value.

    Radius.  In units u = 2^x_i, with E and P the exact parts of order i,
    S the series stop of psi, <= 2^-80 (else NumericFailure("h_balls",
    ...)), and i < 512.  With ball and psi both prec, S bounds the stop of
    h_table at prec too, whose polygamma runs at prec's digits or more, and
    at its raised digits, as WorkingPrecision's stop falls with its digits.
    - the ball's own error (h_table's bound without its final rounding):
      E_i within 2^-(p+1) |E| + u, P_i within (i+1) 2^-(p+21) |P| + S |P|
      + u, the u for the shift to the coarser scale;
    - h_table at prec, from its pass at prec or at raised digits: within
      2^-P (|h^(i)| + |E| + |P|) + S |P| <= 2^(1-P) (|E| + |P|) + S |P|;
    - one more rounding at P bits of that value minus any c with |c| <= |E|,
      such as the trigamma margin h - 1: at most 3 2^-P (|E| + |P|).
    The coefficients of |E| + |P| sum to under 5.6 2^-p.  |E| + |P| <=
    (|E_i| + |P_i| + 2) u / (1 - 2^-79), and the same factor on 2 S |P|
    costs under 2^-157 (|P_i| + 1) u, so

        R_i = floor((|E_i| + |P_i| + 2) 2^(3-p)) + floor(2 S (|P_i| + 1)) + 4

    covers the distance from H_i u to both values: 2^(3-p) leaves 2.3 2^-p
    of room for those factors, and the 4 units are the two floors and the
    two shifts.  As h_table passes them, the same R_i covers the distance
    from its mid to the exact value.
    """
    s_num, s_e = psi.dyadic_stop
    if s_num << 80 > 1 << s_e:
        raise NumericFailure("h_balls", "series stop past the radius proof", t=t)
    # polygamma_fixed first: it refuses a t <= 0
    psis = polygamma_fixed(i_lo + 1, i_hi + 1, t, psi)
    bits = ball.bits
    exps = _exp_recip_fixed(i_lo, i_hi, t, bits)
    balls = []
    for (e, e_exp), (p, p_exp) in zip(exps, psis):
        x = max(e_exp, p_exp)
        e >>= x - e_exp
        p >>= x - p_exp
        size = abs(p) + 1
        # 2 S = s_num / 2^(s_e - 1) exactly
        rad = (abs(e) + size + 1 >> bits - 3) + (s_num * size >> s_e - 1) + 4
        balls.append((e - p, rad, x))
    return balls


def h_function(t, prec=DEFAULT_PRECISION):
    """h(t) = e^(1/t) - psi'(t) for t > 0; completely monotonic, limit 1."""
    return h_table(0, 0, t, prec)[0]


def h_derivative(i, t, prec=DEFAULT_PRECISION):
    """h^(i)(t) for i >= 1, t > 0; the one-order case of h_table."""
    if not isinstance(i, int) or i < 1:
        raise ValueError(
            f"derivative order must be an integer >= 1 (use h_function for i = 0), got {i!r}"
        )
    return h_table(i, i, t, prec)[0]

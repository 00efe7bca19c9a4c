"""Laurent-tail calculus for the remainder of e^(1/z) past its principal part.

The remainder of order k is

    H_k(z) = e^(1/z) - sum_{m=0}^{k} z^-m / m! = sum_{m=k+1}^inf z^-m / m!,

always evaluated from the convergent tail on the right, never by the
subtraction on the left (which cancels catastrophically once z is large).
Derivatives and the scaled family d^n/dt^n [t^r H_k(t)] differentiate the
tail termwise:

    d^n/dt^n [t^r H_k(t)] = sum_{m>k} (1/m!) prod_{j=0}^{n-1} (r-m-j) t^(r-m-n),

with all orders up to a maximum accumulated in a single pass over m.  At
r = 0 every order is a positive-term series with integer multipliers, which
hk_sums sums in fixed-point integers with a proven radius and hk_table turns
into mpfs.
Also hosts h(t) = e^(1/t) - psi'(t) and its derivatives, the difference of
the two engines from specfun.
"""

from typing import NamedTuple

from mpmath import mp

from .specfun import (
    DEFAULT_PRECISION,
    NumericFailure,
    _GUARD_BITS,
    _SERIES_LIMIT,
    _dyadic,
    _exp_recip_from_core,
    polygamma_range,
    to_mpf,
)


def _validate_order(k):
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"remainder order must be a nonnegative integer, got {k!r}")


def _first_stop(k, r, t, invt, max_order):
    """Smallest m at which the relative stop may end a tail sum over m > k.

    Uniform signs need m > r + max_order; the relative stop additionally
    needs the term ratio ~ 1/(t m) safely below 1, hence the 1.5/t margin.
    A first stop at or past the series budget can never be reached, so it
    raises at once instead of spending the budget.
    """
    m_min = k + 3 + max(max_order + int(mp.ceil(max(r, 0))), int(mp.ceil(1.5 * invt)))
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
        m_min = _first_stop(k, r, t, invt, max_order)
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


class HkSums(NamedTuple):
    """The fixed-point sums of hk_table before any mpf arithmetic.

    With T_n = sum_{m>k} (m)^(n) t^(k+1-m) (k+1)!/m! the exact sum of order
    n relative to its first term, S_n 2^exp <= T_n <= (S_n + radii[n]) 2^exp,
    and

        H_k^(n)(t) = (-1)^n lead t^-n T_n,   lead = t^-(k+1)/(k+1)! > 0.
    """

    sums: list
    radii: list
    exp: int
    lead: object


def hk_sums(k, t, max_order, prec=DEFAULT_PRECISION):
    """The integer core of hk_table: S_0..S_max_order, their radii and scale.

    t = den / 2^e exactly; term m is kept relative to the first,
    t^-(k+1)/(k+1)!, as q_m with q_{k+1} = 2^wp and

        q_{m+1} = floor(q_m 2^e / (den (m+1))),

    and order n adds q_m (m)^(n), its rising factor updated by one small
    integer multiply per order.  Whenever q reaches 2^(2 wp) (terms grow up
    to m ~ 1/t) q and the sums drop wp bits together, so the integers stay
    near 2^wp in size however small t is; exp = shift - wp is their common
    scale.  The first stop (_first_stop), the per-order stop (last term <
    series_stop times its sum), the budget and the NumericFailure are those
    of tail_scaled_derivatives at r = 0.

    Rounding.  Every truncation is one-sided.  In units of the current
    scale, with Q_m the exact term: each division and each rescale lowers q
    by at most one unit, and the terms are unimodal in m with q >= 2^wp
    after a rescale, so over M <= _SERIES_LIMIT terms q_m sits below Q_m by
    at most 2M max(1, Q_m 2^-wp) units.  The exact rising factor multiplies
    that error, and a rescale costs each sum at most one unit more.  The
    sum of order n is at least 2^wp (k+1)^(n) at every scale, so it is low
    by a relative 2^-wp (3M + 2M^2 ((M+n)/(k+1))^n) at most, and

        wp = mp.prec + 32 + (max_order + 2) bitlen(_SERIES_LIMIT + max_order)

    bounds that by delta = 2^-(mp.prec+29), under one ulp of the working
    precision.

    Truncation.  The order-n terms a_m = (m)^(n) t^-m/m! have the ratio

        a_(m+1) / a_m = (m+n) / (t m (m+1)),

    which falls as m grows (its derivative in m has the sign of
    -(m^2 + 2nm + n)) and rises with n.  The sum therefore also goes on
    while that ratio at n = max_order is above 1/2; at the stop M every
    later ratio of every order is at most 1/2, and the tail past M is at
    most a_M (1/2 + 1/4 + ...) = a_M.  The true a_M exceeds the computed
    last term by no more than the sum's whole one-sided error, delta P_n,
    with P_n <= S_n / (1 - delta) the exact partial sum.  So T_n - S_n is
    at most last_n + 2 delta P_n < last_n + 2^-(mp.prec+27) S_n, and

        radii[n] = last_n + floor(S_n 2^-(mp.prec+27)) + 1.

    Since 1/(t(m+1)) bounds the ratio from below, no m under the budget
    passes that test once 2/t > _SERIES_LIMIT, which raises at once.
    """
    _validate_order(k)
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError(f"max_order must be a nonnegative integer, got {max_order!r}")
    with prec.workdps():
        t = to_mpf(t)
        if t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        invt = 1 / t
        r = mp.mpf(0)  # for the failure report, as tail_scaled_derivatives gives it
        m_min = _first_stop(k, r, t, invt, max_order)
        den, e = _dyadic(t)
        if 2 << e > den * _SERIES_LIMIT:
            raise _budget_exhausted(k, r, t)
        # series_stop = s_num / 2^s_e exactly, so the stop test is in integers
        s_num, s_e = _dyadic(prec.series_stop)
        wp = (
            mp.prec
            + _GUARD_BITS
            + (max_order + 2) * (_SERIES_LIMIT + max_order).bit_length()
        )
        sums = [0] * (max_order + 1)
        terms = [0] * (max_order + 1)
        q = 1 << wp
        shift = 0
        m = k + 1
        while m < _SERIES_LIMIT:
            c = q
            for n in range(max_order + 1):
                if n:
                    c *= m + n - 1
                sums[n] += c
                terms[n] = c
            if (
                m >= m_min
                and all(term << s_e < s_num * total for term, total in zip(terms, sums))
                and den * m * (m + 1) >= (m + max_order) << (e + 1)
            ):
                break
            m += 1
            q = (q << e) // (den * m)
            if q >> 2 * wp:
                q >>= wp
                sums = [total >> wp for total in sums]
                shift += wp
        else:
            raise _budget_exhausted(k, r, t)
        rel = mp.prec + 27
        radii = [term + (total >> rel) + 1 for term, total in zip(terms, sums)]
        lead = invt ** (k + 1) / mp.factorial(k + 1)
        return HkSums(sums, radii, shift - wp, lead)


def hk_table(k, t, max_order, prec=DEFAULT_PRECISION):
    """[H_k^(n)(t) for n = 0..max_order] for t > 0, all orders in one pass.

    H_k^(n)(t) = (-1)^n t^-n sum_{m>k} (m)^(n) t^-m / m!, with (m)^(n) =
    m (m+1) ... (m+n-1) the rising factorial: every order is a positive-term
    series with integer multipliers, summed in fixed-point integers by
    hk_sums.  The sign, t^-n and the lead factor are applied here, once per
    order, so each entry is within a relative 2^-(mp.prec+27) plus the
    truncated tail of the exact value before those few roundings.
    """
    core = hk_sums(k, t, max_order, prec)
    with prec.workdps():
        invt = 1 / to_mpf(t)
        scale = core.lead
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


def scaled_remainder_derivative(k, r, n, t, prec=DEFAULT_PRECISION):
    """d^n/dt^n [t^r H_k(t)] for t > 0 and real r."""
    return tail_scaled_derivatives(k, r, t, n, prec)[n]


def h_table(i_lo, i_hi, t, prec=DEFAULT_PRECISION):
    """[h^(i)(t) for i = i_lo..i_hi], 0 <= i_lo <= i_hi, t > 0, in one pass.

    h^(i) = (d^i/dt^i e^(1/t)) - psi^(i+1)(t): e^(1/t) is computed once and
    scaled by the closed-form a_{i,k} polynomial of each order, and one
    polygamma_range call supplies every psi^(i+1).  The two engines share no
    code, so their agreement downstream is a real cross-check; the
    subtraction cancels ~ (i+...) digits at large t, which the guard
    precision absorbs.
    """
    if not isinstance(i_lo, int) or not isinstance(i_hi, int) or not 0 <= i_lo <= i_hi:
        raise ValueError(f"need integers 0 <= i_lo <= i_hi, got {i_lo!r}, {i_hi!r}")
    with prec.workdps():
        t = to_mpf(t)
        if t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        core = mp.exp(1 / t)
        psi = polygamma_range(i_lo + 1, i_hi + 1, t, prec)
        return [
            _exp_recip_from_core(i, t, core) - p
            for i, p in zip(range(i_lo, i_hi + 1), psi)
        ]


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

"""Laurent-tail calculus for the remainder of e^(1/z) past its principal part.

The remainder of order k is

    H_k(z) = e^(1/z) - sum_{m=0}^{k} z^-m / m! = sum_{m=k+1}^inf z^-m / m!,

always evaluated from the convergent tail on the right, never by the
subtraction on the left (which cancels catastrophically once z is large).
Derivatives and the scaled family d^n/dt^n [t^r H_k(t)] differentiate the
tail termwise:

    d^n/dt^n [t^r H_k(t)] = sum_{m>k} (1/m!) prod_{j=0}^{n-1} (r-m-j) t^(r-m-n),

with all orders up to a maximum accumulated in a single pass over m.
Also hosts h(t) = e^(1/t) - psi'(t) and its derivatives, the difference of
the two engines from specfun.
"""

from mpmath import mp

from .specfun import (
    DEFAULT_PRECISION,
    NumericFailure,
    _SERIES_LIMIT,
    _exp_recip_from_core,
    polygamma_range,
    to_mpf,
)


def _validate_order(k):
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"remainder order must be a nonnegative integer, got {k!r}")


def tail_scaled_derivatives(k, r, t, max_order, prec=DEFAULT_PRECISION):
    """All of d^n/dt^n [t^r H_k(t)], n = 0..max_order, in one pass over m.

    Term m contributes (t^-m / m!) prod_{j<n} (r-m-j) to order n before the
    common factor t^(r-n).  Summation continues past the term-magnitude
    peak near m ~ 1/t and past m > r + max_order (where every order has
    uniform sign), then stops once each order's latest term is below the
    relative threshold of its absolute partial sum.
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
        sums = [mp.mpf(0) for _ in range(max_order + 1)]
        asums = [mp.mpf(0) for _ in range(max_order + 1)]
        last = [mp.inf for _ in range(max_order + 1)]
        stop = prec.series_stop
        # uniform signs need m > r + max_order; the relative stop additionally
        # needs the term ratio ~ 1/(t m) safely below 1, hence the 1.5/t margin
        m_min = k + 3 + max(max_order + int(mp.ceil(max(r, 0))), int(mp.ceil(1.5 * invt)))
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
            raise NumericFailure(
                "tail_scaled_derivatives", "series budget exhausted", k=k, r=r, t=t
            )
        scale = t ** r
        out = []
        for n in range(max_order + 1):
            out.append(sums[n] * scale)
            scale *= invt
        return out


def remainder_hk(k, z, prec=DEFAULT_PRECISION):
    """H_k(z) = sum_{m>k} z^-m / m! for z > 0; strictly positive."""
    return tail_scaled_derivatives(k, 0, z, 0, prec)[0]


def remainder_hk_derivative(k, n, t, prec=DEFAULT_PRECISION):
    """d^n/dt^n H_k(t) = (-1)^n sum_{m>k} (m)_n t^(-m-n) / m! for t > 0."""
    return tail_scaled_derivatives(k, 0, t, n, prec)[n]


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

"""Sign-pattern scanning and bracketing of the completely monotonic degree.

A function f is completely monotonic when (-1)^n f^(n)(t) >= 0 for all n
and t > 0; its degree with respect to t is the largest r such that t^r f(t)
stays completely monotonic.  check_sign_pattern tests the alternating-sign
property on a finite logarithmic grid up to a finite order; the degree
estimator bisects on r between a pattern-pass and a pattern-fail, driven by
the derivatives of t^r H_k(t) that ScaledTailOracle assembles by the
Leibniz rule from one r-independent table of H_k derivatives per grid
point, so a bisection step sums no series.  The h scans keep one h table
per grid point in the same way (h_oracle).  A grid scan can only certify
failure (a witness) or survive it (no claim beyond the grid), so the result
is a bracket, never an attained value.
"""

from dataclasses import dataclass
from math import comb
from typing import Optional

from mpmath import mp

from .laurent import h_table, hk_table
from .specfun import DEFAULT_PRECISION, NumericFailure, to_mpf


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
    points, with its location; the scan passes when no signed value drops
    below minus the noise floor.
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
    """
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError(f"max_order must be a nonnegative integer, got {max_order!r}")
    with prec.workdps():
        floor = prec.noise_floor
        ts = grid.values(prec)
        min_signed = mp.inf
        arg_n = -1
        arg_t = None
        evals = 0
        violation = None
        for n in range(max_order + 1):
            sign = (-1) ** n
            for t in ts:
                try:
                    value = derivative_oracle(n, t)
                    signed = sign * to_mpf(value)
                except NumericFailure:
                    raise
                except (ValueError, ArithmeticError) as exc:
                    raise NumericFailure(
                        "check_sign_pattern", f"oracle failed: {exc}", n=n, t=t
                    ) from exc
                evals += 1
                if signed < min_signed:
                    min_signed = signed
                    arg_n = n
                    arg_t = t
                if signed < -floor:
                    violation = Violation(order=n, t=t, value=value)
                    break
            if violation is not None:
                break
        return SignPatternReport(
            grid=grid,
            max_order=max_order,
            passed=violation is None,
            violation=violation,
            min_signed=min_signed,
            argmin_order=arg_n,
            argmin_t=arg_t,
            evaluations=evals,
        )


class TableOracle:
    """f^(n)(t) for check_sign_pattern from one derivative table per grid point.

    summer(t) returns [f^(i)(t) for i = 0..max_order]; the table of each t
    is summed on its first request and kept, so an order-major scan sums
    each grid point once however many orders it visits.  series counts the
    tables summed so far.
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

    def __call__(self, n, t):
        self._check_order(n)
        with self.prec.workdps():
            return self.table(to_mpf(t))[n]


def h_oracle(max_order, prec=DEFAULT_PRECISION):
    """oracle(n, t) = h^(n)(t), n <= max_order, over one h_table per grid point."""
    return TableOracle(lambda t: h_table(0, max_order, t, prec), max_order, prec)


class ScaledTailOracle(TableOracle):
    """d^n/dt^n [t^r H_k(t)] for any r from one r-independent table per t.

    By the Leibniz rule the scaled derivative is

        sum_{j<=n} C(n, j) (r)_j t^(r-j) H_k^(n-j)(t),

    with (r)_j the falling factorial.  The table H_k^(i)(t), i <= max_order,
    is summed once per t by hk_table and kept, so
    evaluating at another r costs O(n) multiplications and no series pass.
    """

    def __init__(self, k, max_order, prec=DEFAULT_PRECISION):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"k must be a nonnegative integer, got {k!r}")
        super().__init__(
            lambda t: hk_table(k, t, max_order, prec),
            max_order,
            prec,
        )
        self.k = k

    def at(self, r):
        """The oracle(n, t) = d^n/dt^n [t^r H_k(t)] for check_sign_pattern.

        Besides the sum it accumulates a = sum |terms| and raises
        NumericFailure when (n+2) a eps reaches |(-1)^n value + noise_floor|,
        where rounding in the sum alone could flip the scan's verdict.
        """
        prec = self.prec
        max_order = self.max_order
        with prec.workdps():
            r = to_mpf(r)
            falling = [mp.mpf(1)]
            for j in range(max_order):
                falling.append(falling[-1] * (r - j))
            # Leibniz coefficients C(n, j) (r)_j, which depend on r alone
            leibniz = [
                [comb(n, j) * falling[j] for j in range(n + 1)]
                for n in range(max_order + 1)
            ]
            floor = prec.noise_floor
            eps = mp.eps
        powers = {}

        def oracle(n, t):
            self._check_order(n)
            with prec.workdps():
                t = to_mpf(t)
                table = self.table(t)
                scale = powers.get(t)
                if scale is None:
                    scale = [t ** r]
                    invt = 1 / t
                    for _ in range(max_order):
                        scale.append(scale[-1] * invt)
                    powers[t] = scale
                value = mp.mpf(0)
                asum = mp.mpf(0)
                for j, coeff in enumerate(leibniz[n]):
                    term = coeff * scale[j] * table[n - j]
                    value += term
                    asum += abs(term)
                if (n + 2) * asum * eps >= abs((-1) ** n * value + floor):
                    raise NumericFailure(
                        "ScaledTailOracle",
                        "rounding in the Leibniz sum could flip the sign verdict",
                        k=self.k,
                        r=r,
                        n=n,
                        t=t,
                    )
                return value

        return oracle


@dataclass(frozen=True)
class DegreeEstimate:
    """Bisection bracket [r_lo, r_hi]: pattern passes at r_lo, fails at r_hi.

    series is the number of H_k derivative tables summed for the bracket,
    one per grid point.
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
    point sums its tail series once.
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

        def passes(r):
            return check_sign_pattern(tables.at(r), grid, max_order, prec).passed

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

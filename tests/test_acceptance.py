"""Acceptance battery: one test per headline criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Each test calls the same criterion function the CLI `suite`
subcommand uses, so a green run here and `cmcheck suite` agree by
construction.
"""

import pytest
from mpmath import mp

from cmcheck import WorkingPrecision, cmdeg, suite
from cmcheck.cmdeg import DEFAULT_H_GRID
from cmcheck.laurent import h_table

PREC = WorkingPrecision(50)


def _run(criterion):
    record = criterion(PREC)
    verdict = "PASS" if record["passed"] else "FAIL"
    print(f"{verdict} {record['id']}")
    assert record["elapsed_seconds"] >= 0
    return record


def test_degree_brackets():
    record = _run(suite.criterion_degree)
    assert record["elapsed_seconds"] < 60
    assert len(record["brackets"]) == 5
    for bracket in record["brackets"]:
        assert bracket["contains_k_plus_1"] is True
        assert bracket["series"] == 200
        assert mp.mpf(bracket["width"]) <= mp.mpf(1) / 32 + mp.mpf("1e-30")
    assert record["passed"] is True


def test_h_alternating_derivatives():
    record = _run(suite.criterion_h_complete_monotonicity)
    assert mp.mpf(record["min_signed_derivative"]) > mp.mpf("1e-35")
    assert mp.mpf(record["min_h"]) > 1
    assert mp.mpf(record["h100_minus_1"]) < mp.mpf("1e-8")
    assert record["passed"] is True


@pytest.mark.parametrize("digits", (30, 100))
def test_min_h_is_ranked_by_balls_of_h(digits, monkeypatch):
    # the criterion ranks h by the balls of _h_ball, from the sign rung's
    # row of h - 1, so it sums h_table at prec at one or two points, where
    # balls good only for signs left 118 of the 200 candidates; each ball
    # holds h_table(0, 0, t, prec) and h itself, from mpmath at three times
    # the digits
    prec = WorkingPrecision(digits)
    calls = []

    def counted(*args):
        calls.append(args[2])
        return h_table(*args)

    monkeypatch.setattr(cmdeg, "h_table", counted)
    assert suite.criterion_h_complete_monotonicity(prec)["passed"] is True
    assert len(calls) <= 2
    with prec.workdps():
        ts = DEFAULT_H_GRID.values(prec)
    for t in ts:
        mid, rad, x = suite._h_ball(t, prec)
        value = h_table(0, 0, t, prec)[0]
        with mp.workdps(3 * prec.digits):
            unit = mp.ldexp(1, x)
            exact = mp.exp(1 / t) - mp.psi(1, t)
            assert abs(value - mid * unit) <= rad * unit, t
            assert abs(exact - mid * unit) <= rad * unit, t


def test_integral_representations():
    record = _run(suite.criterion_representations)
    assert record["elapsed_seconds"] < 30
    assert len(record["checks"]) == 2 * 4 * 4 + 3 * 2
    assert all(c["passed"] for c in record["checks"])
    assert record["passed"] is True


def test_kernel_identities():
    record = _run(suite.criterion_kernel_identities)
    assert mp.mpf(record["worst_rel_gap"]) < mp.mpf("1e-30")
    assert record["passed"] is True


def test_inequality_scans():
    record = _run(suite.criterion_inequalities)
    assert mp.mpf(record["bessel_min_margin"]) > 0
    assert mp.mpf(record["trigamma_min_margin"]) > 0
    assert record["bessel_points_below_0.2"] >= 30
    assert 0 < mp.mpf(record["bessel_margin_at_0.2"]) < mp.mpf("1e-7")
    assert record["passed"] is True


def test_proof_algebra():
    record = _run(suite.criterion_proof_algebra)
    assert record["forms_a_b_equal_i_0_12"] is True
    assert record["forms_a_c_d_equal_i_1_12"] is True
    assert record["form_c_i0_anomaly_minus22_vs_minus2"] is True
    assert record["negativity_i_0_12"] is True
    assert record["difference_bound_i_0_6"] is True
    assert record["passed"] is True


def test_polygamma_identities():
    record = _run(suite.criterion_polygamma_identities)
    for row in record["identities"]:
        assert mp.mpf(row["rel_gap"]) < mp.mpf("1e-40")
    assert mp.mpf(record["worst_recurrence_residual"]) < mp.mpf("1e-40")
    assert record["passed"] is True


@pytest.mark.parametrize("digits", range(30, 41))
def test_sign_criteria_pass_at_low_digits(digits):
    # each sign verdict reads a value with its error ball and each suite
    # tolerance scales with the series stop, so these criteria hold at
    # every digits level from the lowest the CLI accepts
    prec = WorkingPrecision(digits)
    for criterion in (
        suite.criterion_inequalities,
        suite.criterion_proof_algebra,
        suite.criterion_polygamma_identities,
    ):
        record = criterion(prec)
        assert record["passed"] is True, (digits, record["id"])


def test_quadrature_calibration():
    record = _run(suite.criterion_calibration)
    assert mp.mpf(record["worst_rel_err"]) < mp.mpf("1e-12")
    assert record["passed"] is True

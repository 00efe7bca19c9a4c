"""Command line interface: reports, formats, determinism, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp

import oracles
from cmcheck import LogGrid, WorkingPrecision, check_sign_pattern, cli, hk_table
from cmcheck.cli import EVAL_FNS, main
from cmcheck.cmdeg import DEFAULT_DEGREE_GRID
from cmcheck.specfun import _dyadic
from cmcheck.suite import _fmt

CSV_HEADER = "command,id,passed,provenance,value,detail"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_trigamma_fifty_digits(self, capsys):
        code, out, _ = run_cli(["eval", "--fn", "trigamma", "--t", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "eval"
        assert report["digits"] == 50
        assert report["pass"] is True
        record = report["results"][0]
        assert record["id"] == "trigamma"
        assert record["provenance"] == "series"
        with mp.workdps(70):
            assert record["value"] == mp.nstr(mp.pi ** 2 / 6, 50)

    def test_trigamma_at_a_thousand_digits(self, capsys):
        # the Euler-Maclaurin budget of polygamma grows with the digits
        argv = ["eval", "--fn", "trigamma", "--t", "0.5", "--digits", "1000"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        with mp.workdps(1040):
            want = mp.psi(1, mp.mpf("0.5"))
            assert abs(mp.mpf(value) - want) <= mp.mpf(10) ** -997 * want

    def test_digits_flag_controls_output(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--fn", "trigamma", "--t", "1", "--digits", "30"], capsys
        )
        assert code == 0
        with mp.workdps(70):
            want = mp.nstr(mp.pi ** 2 / 6, 30)
        assert json.loads(out)["results"][0]["value"] == want

    def test_exact_provenance_for_integer_results(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--fn", "a-coeff", "--i", "4", "--k", "2"], capsys
        )
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["value"] == "36"
        assert record["provenance"] == "exact"

    def test_every_function_dispatches(self, capsys):
        canned = {
            "t": "1",
            "z": "1",
            "r": "1.5",
            "a": "2",
            "b1": "2",
            "b2": "3",
            "i": "2",
            "k": "1",
            "n": "2",
            "nu": "1",
        }
        for fn, (required, _, _fn) in EVAL_FNS.items():
            argv = ["eval", "--fn", fn]
            for flag in required:
                argv += [f"--{flag}", canned[flag]]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, (fn, out)
            assert json.loads(out)["results"][0]["passed"] is True

    @pytest.mark.parametrize("z", ("1e-5", "1e-7"))
    @pytest.mark.parametrize("k", (0, 3))
    def test_hk_past_the_series_budget(self, k, z, capsys):
        # 1/z is past the seam 2(k+1), where H_k takes one exponential and
        # sums no series, so no series budget refuses it
        argv = ["eval", "--fn", "hk", "--k", str(k), "--z", z, "--digits", "30"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        with WorkingPrecision(30).workdps():
            t = mp.mpf(z)
        with mp.workprec(400):
            x = 1 / t
            want = mp.exp(x) - sum(x**m / mp.factorial(m) for m in range(k + 1))
            assert abs(mp.mpf(value) - want) <= mp.mpf("1e-29") * want

    @pytest.mark.parametrize(
        "fn, flags, provenance",
        (
            ("hk", ("--k", "4", "--z", "0.01"), "closed-form"),
            ("hk", ("--k", "0", "--z", "1e-7", "--digits", "30"), "closed-form"),
            ("hk", ("--k", "1", "--z", "0.25"), "closed-form"),
            ("hk", ("--k", "4", "--z", "0.5"), "series"),
            ("hk", ("--k", "1", "--z", "1.2"), "series"),
            ("hk-deriv", ("--k", "1", "--n", "2", "--t", "0.2"), "closed-form"),
            ("hk-deriv", ("--k", "1", "--n", "2", "--t", "0.3"), "series"),
            ("hk-scaled-deriv", ("--k", "1", "--r", "2", "--n", "2", "--t", "0.2"), "closed-form"),
            ("hk-scaled-deriv", ("--k", "1", "--r", "2", "--n", "2", "--t", "0.3"), "series"),
        ),
    )
    def test_hk_provenance_names_the_route(self, fn, flags, provenance, capsys):
        # from the seam 1/t = 2(k+1) on, the seam itself at k = 1 included,
        # H_k is one exponential less its head, below it a series
        code, out, _ = run_cli(["eval", "--fn", fn, *flags], capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["provenance"] == provenance

    def test_inputs_echo(self, capsys):
        _, out, _ = run_cli(
            ["eval", "--fn", "polygamma", "--n", "2", "--t", "0.5"], capsys
        )
        inputs = json.loads(out)["inputs"]
        assert inputs == {"fn": "polygamma", "n": 2, "t": "0.5"}


def eval_scaled(flags, digits, capsys):
    """(exit code, first record) of eval --fn hk-scaled-deriv at digits."""
    argv = ["eval", "--fn", "hk-scaled-deriv", *flags, "--digits", str(digits)]
    code, out, _ = run_cli(argv, capsys)
    return code, json.loads(out)["results"][0]


class TestScaledDerivativeEval:
    """eval --fn hk-scaled-deriv against termwise mpmath sums at several times
    the digits: every printed digit must be the reference's."""

    @pytest.mark.parametrize("digits", (30, 50))
    def test_near_a_zero_of_the_derivative(self, digits, capsys):
        # at r = -t H_0'(t) / H_0(t) the first derivative of t^r H_0 vanishes
        # at t = 32; r is that zero's dyadic at the working precision, passed
        # exactly, so the eval and the reference take the same r.  The bracket
        # cancels there, so the digits must be raised before printing
        prec = WorkingPrecision(digits)
        with prec.workdps():
            h0, h1 = hk_table(0, 32, 1, prec)
            root = -32 * h1 / h0
        a, s = _dyadic(root)
        flags = ["--k", "0", f"--r={a}/{2**s}", "--n", "1", "--t", "32"]
        code, record = eval_scaled(flags, digits, capsys)
        assert code == 0
        want = oracles.tail_derivative_partial(0, root, 1, 32, 150, dps=4 * digits)
        assert record["value"] == mp.nstr(want, digits)

    @pytest.mark.parametrize("digits", (30, 50))
    def test_large_r_has_a_closed_form(self, digits, capsys):
        # d/dt [t^r H_0(t)] at t = 1 is r H_0(1) + H_0'(1) = r (e - 1) - e
        flags = ["--k", "0", "--r", "300000", "--n", "1", "--t", "1"]
        code, record = eval_scaled(flags, digits, capsys)
        assert code == 0
        with mp.workdps(3 * digits):
            want = 300000 * (mp.e - 1) - mp.e
            assert record["value"] == mp.nstr(want, digits)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    @pytest.mark.parametrize("n", (3, 6))
    @pytest.mark.parametrize("t", ("3", "1e4"))
    def test_cancelling_brackets_keep_every_digit(self, t, n, digits, capsys):
        # at r = 5 the termwise terms m <= 5 vanish, so at t = 1e4 the
        # Leibniz bracket cancels about 16 digits
        flags = ["--k", "2", "--r", "5", "--n", str(n), "--t", t]
        code, record = eval_scaled(flags, digits, capsys)
        assert code == 0
        want = oracles.tail_derivative_partial(2, 5, n, t, 400, dps=3 * digits)
        assert record["value"] == mp.nstr(want, digits)

    def test_raise_cap_exits_three(self, monkeypatch, capsys):
        # a series stop that no digits can lower keeps the radius near a
        # quarter of the value, so every raise fails and the eval refuses
        monkeypatch.setattr(cli, "WorkingPrecision", oracles.CoarseStop)
        flags = ["--k", "0", "--r", "1", "--n", "1", "--t", "2"]
        code, record = eval_scaled(flags, 30, capsys)
        assert code == 3
        assert record["id"] == "numeric-failure"
        assert record["operation"] == "scaled_remainder_derivative"
        assert record["detail"].startswith("error radius")
        assert record["inputs"] == {"k": 0, "r": "1.0", "n": 1, "t": "2.0"}


class TestDeterminismAndFormats:
    def test_identical_reports_modulo_timing(self, capsys):
        argv = ["eval", "--fn", "h", "--t", "2.5"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("elapsed_seconds")
        r2.pop("elapsed_seconds")
        assert r1 == r2

    def test_json_round_trip_preserves_digits(self, capsys):
        _, out, _ = run_cli(["eval", "--fn", "hk", "--k", "2", "--z", "0.5"], capsys)
        value = json.loads(out)["results"][0]["value"]
        with mp.workdps(80):
            reparsed = mp.mpf(value)
            frozen = mp.mpf("2.3890560989306502272304274605750078131803155705518")
            assert abs(reparsed - frozen) <= mp.mpf("1e-48") * frozen

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            [
                "inequality",
                "--which",
                "trigamma",
                "--grid-points",
                "40",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("inequality,inequality-trigamma,True,series,,")
        assert "min_margin=" in lines[1]

    def test_csv_eval_row_carries_value(self, capsys):
        _, out, _ = run_cli(
            ["eval", "--fn", "u-ratio", "--t", "0.3", "--format", "csv"], capsys
        )
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("eval,u-ratio,True,closed-form,1.157488774")

    def test_out_file_atomic(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["fpoly", "--i", "0", "--t", "1", "--form", "C", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["results"][0]["value"] == "-22"
        assert report["results"][0]["validated_form"] is False


class TestSubcommands:
    def test_degree_fast_bracket(self, capsys):
        code, out, _ = run_cli(
            [
                "degree",
                "--k",
                "0",
                "--r-min",
                "0.5",
                "--r-max",
                "1.5",
                "--tol",
                "0.25",
                "--grid-points",
                "50",
                "--max-order",
                "3",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["contains_k_plus_1"] is True
        assert record["series"] == 50
        with mp.workdps(60):
            assert mp.mpf(record["r_lo"]) <= 1 <= mp.mpf(record["r_hi"])
            assert mp.mpf(record["width"]) <= mp.mpf("0.25")

    @pytest.mark.parametrize(
        "argv, provenance",
        (
            (("degree", "--k", "1", "--grid-min", "1e-7"), "series+closed-form"),
            (("degree", "--k", "0", "--grid-min", "0.6"), "series"),
            (("verify-cm", "--target", "hk", "--k", "2"), "series+closed-form"),
            (
                ("verify-cm", "--target", "hk", "--k", "2", "--grid-max", "0.01",
                 "--grid-min", "1e-3"),
                "closed-form",
            ),
        ),
    )
    def test_hk_scan_provenance_names_its_routes(self, argv, provenance, capsys):
        # H_k from the seam 1/t = 2(k+1) on is one exponential less its
        # head, below it a series: the grid from 1e-7 straddles the seam of
        # k = 1 at 1/4, the one from 0.6 lies below that of k = 0 at 1/2,
        # the default from 0.01 straddles that of k = 2 at 1/6 and the one
        # up to 0.01 lies past it
        flags = ("--grid-points", "20", "--digits", "30")
        code, out, _ = run_cli([*argv, *flags], capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["provenance"] == provenance

    @pytest.mark.parametrize(
        "argv, evaluations",
        (
            (("verify-cm", "--target", "hk", "--k", "0", "--digits", "30"), 35),
            (("verify-cm", "--target", "hk", "--k", "0", "--digits", "50"), 35),
            (("verify-cm", "--target", "h", "--max-order", "2", "--digits", "30"), 15),
            (("inequality", "--which", "trigamma", "--digits", "30"), 5),
        ),
        ids=("hk-30", "hk-50", "h-30", "trigamma-30"),
    )
    def test_scans_from_a_huge_value(self, argv, evaluations, capsys):
        # H_0(1e-40) and h(1e-40) are about e^(1e40): the scans compare
        # balls and values without forming them as integers, and pass with
        # a report
        flags = ("--grid-min", "1e-40", "--grid-points", "5")
        code, out, _ = run_cli([*argv, *flags], capsys)
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["passed"] is True and record["evaluations"] == evaluations

    def test_verify_cm_h_small(self, capsys):
        code, out, _ = run_cli(
            [
                "verify-cm",
                "--target",
                "h",
                "--grid-min",
                "0.1",
                "--grid-max",
                "10",
                "--grid-points",
                "20",
                "--max-order",
                "3",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["passed"] is True
        assert record["evaluations"] == 4 * 20

    @pytest.mark.parametrize(
        "r",
        ("1/3", "-1/2", "2305843009213693953/1152921504606846976"),
        ids=("one-third", "minus-half", "k+1+2^-60"),
    )
    def test_verify_cm_hk_long_r_matches_termwise_route(self, r, capsys):
        # r values whose dyadics are long or negative, against a scan of the
        # termwise series summed afresh at r
        argv = ["verify-cm", "--target", "hk", "--k", "1", f"--r={r}"]
        argv += ["--grid-points", "30", "--digits", "30"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        record = json.loads(out)["results"][0]
        prec = WorkingPrecision(30)
        grid = LogGrid(DEFAULT_DEGREE_GRID.t_min, DEFAULT_DEGREE_GRID.t_max, 30)
        termwise = oracles.TableOracle(
            lambda t: oracles.tail_scaled_derivatives(1, Fraction(r), t, 6, prec),
            6,
            prec,
        )
        want = check_sign_pattern(termwise, grid, 6, prec)
        assert record["passed"] is want.passed is True
        assert record["evaluations"] == want.evaluations
        assert record["argmin_order"] == want.argmin_order
        assert record["argmin_t"] == _fmt(want.argmin_t, prec)
        with prec.workdps():
            got = mp.mpf(record["min_signed"])
            assert abs(got - want.min_signed) <= mp.mpf("1e-27") * abs(want.min_signed)

    def test_parses_share_no_state(self, capsys):
        # the parser is built once per process; each parse starts afresh
        argv = ["eval", "--fn", "polygamma", "--n", "2", "--t", "1"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(["eval", "--fn", "trigamma", "--t", "1"], capsys)
        assert json.loads(first)["inputs"] == {"fn": "polygamma", "n": 2, "t": "1"}
        assert json.loads(second)["inputs"] == {"fn": "trigamma", "t": "1"}

    def test_verify_integral(self, capsys):
        code, out, _ = run_cli(
            ["verify-integral", "--rep", "f12", "--k", "0", "--z", "1"], capsys
        )
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["rhs"].startswith("1.7182818284")
        with mp.workdps(60):
            assert mp.mpf(record["rel_err"]) < mp.mpf("1e-10")

    def test_verify_integral_index_defaults_to_zero(self, capsys):
        argv = ["verify-integral", "--rep", "bessel", "--z", "5", "--rel-tol", "1e-3"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        report = json.loads(out)
        assert "k" not in report["inputs"]
        assert report["results"][0]["index"] == 0

    def test_fpoly_fraction_input(self, capsys):
        code, out, _ = run_cli(
            ["fpoly", "--i", "3", "--t", "3/2", "--form", "D"], capsys
        )
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["value"] == str(oracles.fpoly_bruteforce(3, Fraction(3, 2)))
        assert record["provenance"] == "exact"


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, _, _ = run_cli(["eval", "--fn", "h", "--t", "1"], capsys)
        assert code == 0

    @pytest.mark.parametrize("digits", range(30, 41))
    def test_bessel_scan_passes_at_low_digits(self, digits, capsys):
        # the least margin, 5.4e-19 at t = 0.01, is decided by its radius at
        # every digits level, so the scan exits 0 from 30 digits on
        code, out, _ = run_cli(
            ["inequality", "--which", "bessel", "--digits", str(digits)], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["results"][0]["argmin_t"].startswith("0.0100000")

    def test_violation_is_one(self, capsys):
        code, out, _ = run_cli(
            [
                "verify-cm",
                "--target",
                "hk",
                "--k",
                "0",
                "--r",
                "1.25",
                "--grid-points",
                "40",
                "--max-order",
                "2",
            ],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["results"][0]["violation"]["order"] == 1

    def test_usage_error_is_two(self, capsys):
        code, _, err = run_cli(["eval", "--fn", "trigamma", "--t", "-1"], capsys)
        assert code == 2
        assert "usage error" in err
        assert "positive" in err

    def test_negative_k_is_two(self, capsys):
        code, _, err = run_cli(["verify-cm", "--target", "hk", "--k", "-1"], capsys)
        assert code == 2
        assert "k must be a nonnegative integer" in err

    def test_missing_flag_is_two(self, capsys):
        code, _, err = run_cli(["eval", "--fn", "polygamma", "--t", "1"], capsys)
        assert code == 2
        assert "--n" in err

    def test_bad_bracket_is_two(self, capsys):
        code, _, err = run_cli(
            [
                "degree",
                "--k",
                "0",
                "--r-min",
                "5",
                "--r-max",
                "6",
                "--grid-points",
                "30",
                "--max-order",
                "2",
            ],
            capsys,
        )
        assert code == 2
        assert "bracket" in err

    def test_argparse_rejections_are_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--fn", "trigamma", "--bogus", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_numeric_failure_is_three(self, capsys):
        # k = 60000 sums its series at 1e-5, whose first stop passes the budget
        argv = ["eval", "--fn", "hk", "--k", "60000", "--z", "1e-5"]
        code, _, err = run_cli(argv, capsys)
        assert code == 3
        assert "numeric failure" in err
        assert "series budget" in err

    def test_digits_floor_is_two(self, capsys):
        code, _, err = run_cli(
            ["eval", "--fn", "trigamma", "--t", "1", "--digits", "10"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("target", ("h", "hk"))
    def test_zero_grid_points_is_two(self, target, capsys):
        argv = ["verify-cm", "--target", target, "--grid-points", "0"]
        if target == "hk":
            argv += ["--k", "0"]
        code, _, err = run_cli(argv + ["--max-order", "0"], capsys)
        assert code == 2
        assert "points must be an integer >= 2" in err

    @pytest.mark.parametrize("rel_tol", ("2", "1.5e-40"))
    def test_rel_tol_error_names_the_given_value(self, rel_tol, capsys):
        argv = ["verify-integral", "--rep", "f12", "--k", "1", "--z", "2"]
        code, out, _ = run_cli(argv + ["--rel-tol", rel_tol], capsys)
        assert code == 2
        assert rel_tol in json.loads(out)["results"][0]["detail"]

    @pytest.mark.parametrize(
        "argv, flag",
        (
            (["verify-integral", "--rep", "h", "--k", "3", "--z", "1"], "--k"),
            (["verify-integral", "--rep", "f12", "--n", "4", "--z", "1"], "--n"),
            (["verify-cm", "--target", "h", "--k", "3", "--r", "9"], "--k"),
            (["verify-cm", "--target", "h", "--r", "9"], "--r"),
        ),
    )
    def test_flag_that_does_not_apply_is_two(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "usage error" in err
        report = json.loads(out)
        assert report["status"] == "usage-error"
        assert report["results"][0]["detail"] == f"{flag} does not apply here"

    @pytest.mark.parametrize(
        "flags, flag",
        (
            (["--fn", "trigamma", "--t", "1", "--k", "3", "--nu", "9"], "--k"),
            (["--fn", "h", "--t", "1", "--z", "2"], "--z"),
            (["--fn", "hk", "--k", "1", "--z", "1", "--r", "2"], "--r"),
            (["--fn", "a-coeff", "--i", "4", "--k", "2", "--n", "1"], "--n"),
            (["--fn", "u-ratio", "--t", "0.3", "--a", "2"], "--a"),
        ),
    )
    def test_eval_flag_that_does_not_apply_is_two(self, flags, flag, capsys):
        code, out, err = run_cli(["eval"] + flags, capsys)
        assert code == 2
        assert "usage error" in err
        report = json.loads(out)
        assert report["status"] == "usage-error"
        assert report["results"][0]["detail"] == f"{flag} does not apply here"

    @pytest.mark.parametrize(
        "argv",
        (
            ["fpoly", "--i", "1", "--t", "1/0"],
            ["degree", "--k", "0", "--tol", "1/0"],
            ["degree", "--k", "0", "--r-min", "1/0", "--r-max", "2"],
            ["verify-cm", "--target", "hk", "--k", "0", "--r", "1/0"],
            ["eval", "--fn", "hyp1f2", "--b1", "1/0", "--b2", "2", "--t", "1"],
            ["eval", "--fn", "shifted-factorial", "--a", "1/0", "--n", "2"],
        ),
    )
    def test_zero_denominator_is_two(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "usage error" in err
        report = json.loads(out)
        assert report["status"] == "usage-error"
        assert report["results"][0]["detail"] == "1/0 has a zero denominator"

    @pytest.mark.parametrize(
        "argv",
        (
            ["fpoly", "--i", "1", "--t", "inf"],
            ["fpoly", "--i", "1", "--t", "nan"],
            ["eval", "--fn", "exp-recip-deriv", "--i", "1", "--t", "nan"],
            ["eval", "--fn", "shifted-factorial", "--a", "nan", "--n", "2"],
            ["eval", "--fn", "u-ratio", "--t", "inf"],
            ["degree", "--k", "0", "--tol", "nan"],
            ["eval", "--fn", "trigamma", "--t", "inf"],
            ["verify-cm", "--target", "hk", "--k", "0", "--r", "nan"],
            ["eval", "--fn", "h-kernel", "--t=-inf"],
        ),
    )
    def test_non_finite_input_is_two(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "usage error" in err
        report = json.loads(out)
        assert report["status"] == "usage-error"
        assert "is not a finite real number" in report["results"][0]["detail"]

    def test_usage_error_writes_a_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        argv = ["eval", "--fn", "trigamma", "--t", "-1", "--out", str(target)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err
        report = json.loads(target.read_text())
        assert report["pass"] is False
        assert report["status"] == "usage-error"
        assert report["inputs"] == {"fn": "trigamma", "t": "-1"}
        record = report["results"][0]
        assert record["id"] == "usage-error"
        assert record["passed"] is False
        assert "positive" in record["detail"]

    def test_numeric_failure_writes_a_report(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        argv = ["eval", "--fn", "hk", "--k", "60000", "--z", "1e-5"]
        code, out, err = run_cli(
            argv + ["--format", "csv", "--out", str(target)], capsys
        )
        assert code == 3
        assert out == ""
        assert "numeric failure" in err
        code, out, _ = run_cli(argv, capsys)
        assert code == 3
        report = json.loads(out)
        assert report["pass"] is False
        assert report["status"] == "numeric-failure"
        record = report["results"][0]
        assert record["operation"] == "hk_sums"
        assert record["detail"] == "series budget exhausted"
        assert set(record["inputs"]) == {"k", "t"}
        assert record["inputs"]["k"] == 60000
        assert mp.mpf(record["inputs"]["t"]) == mp.mpf("1e-5")
        lines = target.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("eval,numeric-failure,False,")


class TestInstalledEntryPoint:
    def test_console_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "cmcheck.cli", "eval", "--fn", "a-coeff", "--i", "3", "--k", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["results"][0]["value"] == "6"

    def test_binary_on_path(self, cmcheck_on_path):
        result = subprocess.run(
            ["cmcheck", "fpoly", "--i", "1", "--t", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["results"][0]["value"] == "-30"

"""End-to-end tests of the command-line interface."""

import collections
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import permutations
from pathlib import Path

import pytest

from padic_cartan import cli
from padic_cartan.cli import _logcoeff_digits, _parse_rational, main
from padic_cartan.formal_log import FormalLogPrefix, yasuda_coefficient_exact

EXAMPLE1 = ["--p", "11", "--a", "1331", "--b", "121"]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_classify_json_payload(capsys):
    rc, out, err = run(capsys, "classify", *EXAMPLE1, "--json")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["image_label"] == "preimage_of_index3_subgroup_level_1"
    assert payload["n0"] == 1
    assert payload["index_at_level"] == 3
    assert payload["hodge"]["v_beta"] == "4/3"
    assert payload["hodge"]["alpha"]["lift"] == "5"
    assert payload["hodge"]["alpha"]["precision"] == 1
    # Canonical serialization: reserializing reproduces the bytes.
    assert out == json.dumps(payload, indent=2) + "\n"


def test_classify_text_covers_same_fields(capsys):
    rc, out, _ = run(capsys, "classify", *EXAMPLE1)
    assert rc == 0
    rc, json_out, _ = run(capsys, "classify", *EXAMPLE1, "--json")
    payload = json.loads(json_out)
    for key in payload:
        assert f"{key}:" in out
    assert "image_label: preimage_of_index3_subgroup_level_1" in out
    assert "p>sqrt(n0+1): true" in out


def test_classify_input_errors(capsys, monkeypatch):
    # The curve refuses all three in one text; 2021 = 43 * 47 has no factor <= 41,
    # so the Miller-Rabin witnesses refuse it.
    for p in ("9", "3", "2021"):
        rc, out, err = run(capsys, "classify", "--p", p, "--a", "1", "--b", "1")
        assert rc == 2 and out == "" and err == "p must be an odd prime > 3\n"
    rc, _, err = run(capsys, "classify", "--p", "11", "--a", "0", "--b", "0")
    assert rc == 2 and "discriminant vanishes" in err
    rc, _, err = run(capsys, "classify", "--p", "11", "--a", "x", "--b", "1")
    assert rc == 2 and "a must be a rational" in err
    rc, _, err = run(capsys, "classify", "--p", "11", "--a", "1331")
    assert rc == 2 and "--batch" in err
    rc, _, err = run(capsys, "classify", *EXAMPLE1, "--precision", "2")
    assert rc == 2 and "below e = 3" in err
    rc, _, err = run(capsys, "classify", *EXAMPLE1, "--precision", "many")
    assert rc == 2 and "e-multiplier" in err

    def no_loop(*args):
        raise AssertionError("a loop of curve.py ran before the refusal")

    monkeypatch.setattr("padic_cartan.curve.range", no_loop, raising=False)
    for mode in ([], ["--json"]):  # the Hasse table priced from p, before it is built
        rc, out, err = run(capsys, "classify", "--p", "1000000007", "--a", "1", "--b", "1", *mode)
        assert rc == 2 and out == "" and err == (
            "the Hasse invariant at p = 1000000007 needs 500000003 factorials mod p, "
            "over the budget 2e+06\n")


def test_classify_precision_flag_and_default(capsys):
    rc, out, _ = run(capsys, "classify", *EXAMPLE1, "--json", "--precision", "1e")
    assert rc == 0
    hodge = json.loads(out)["hodge"]
    assert hodge["certificate_pi_digits"] == 3
    assert hodge["alpha"] is None  # beta invisible in the capped window
    rc, out, _ = run(capsys, "classify", *EXAMPLE1, "--json", "--precision", "4e")
    assert rc == 0
    assert json.loads(out)["hodge"]["certificate_pi_digits"] == 7
    assert run(capsys, "classify", *EXAMPLE1, "--json") == (0, out, "")  # the 4e default


def test_exponent_and_decimal_rationals_are_refused_before_parsing(capsys, monkeypatch, tmp_path):
    # Fraction reads "1e19999999" as a 20-million-digit integer; the documented
    # forms are integers and n/d, so these are refused before Fraction runs.
    def no_fraction(*args):
        raise AssertionError("Fraction ran on a refused rational")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    batch = tmp_path / "curves.txt"
    for text in ("1e19999999", "1E5", "-2.5", ".5", "7/4e1"):
        rc, out, err = run(capsys, "classify", "--p", "11", "--a", text, "--b", "1")
        assert rc == 2 and out == "" and err == (
            f"a must be a rational like 7 or -7/4, got {text!r}\n")
        batch.write_text(f"11 {text} 1\n")
        rc, out, err = run(capsys, "classify", "--batch", str(batch))
        assert rc == 2 and out == "" and err == (
            f"{batch}:1: a must be a rational like 7 or -7/4, got {text!r}\n")
    monkeypatch.undo()
    for text, value in (("7", 7), (" -7/4 ", Fraction(-7, 4)), ("+3/6", Fraction(1, 2)),
                        ("1_000", 1000)):
        assert _parse_rational(text, "a") == value


def test_classify_default_k_max_is_two(capsys):
    # v(beta) = 7/3 wants k = 3; the CLI caps the adaptive level at 2.
    rc, out, _ = run(
        capsys, "classify", "--p", "11", "--a", "14641", "--b", "121", "--json"
    )
    assert rc == 0
    hodge = json.loads(out)["hodge"]
    assert hodge["k_used"] == 2 and hodge["certificate_pi_digits"] == 7


def test_classify_refuses_a_level_cap_below_one(capsys, tmp_path):
    batch = tmp_path / "curves.txt"
    batch.write_text("11 1331 121\n")
    for k_max in ("0", "-5"):
        rc, out, err = run(capsys, "classify", *EXAMPLE1, "--k-max", k_max)
        assert rc == 2 and out == "" and err == f"the level cap must be at least 1, got {k_max}\n"
        rc, out, err = run(capsys, "classify", "--batch", str(batch), "--k-max", k_max)
        assert rc == 2 and out == "" and err == (
            f"{batch}:1: the level cap must be at least 1, got {k_max}\n")
    rc, out, _ = run(capsys, "classify", *EXAMPLE1, "--k-max", "1", "--json")
    assert rc == 0 and json.loads(out)["hodge"]["k_used"] == 1


def test_p5_lift_with_an_exact_divisor_is_answered(capsys):
    curve = ["--p", "5", "--a", "375", "--b", "1250"]
    rc, out, err = run(capsys, "classify", *curve, "--json")
    assert rc == 0 and err == ""
    assert json.loads(out)["image_label"] == "out_of_scope(canonical_subgroup)"
    rc, out, err = run(capsys, "beta", *curve, "--json")
    assert rc == 0 and err == "" and json.loads(out)["v_beta"] == "0"


def test_classify_batch_text_and_json(capsys, tmp_path):
    batch = tmp_path / "curves.txt"
    batch.write_text(
        "# comment line\n"
        "\n"
        "11 1331 121  # trailing comment\n"
        "11 0 121\n"
    )
    rc, out, _ = run(capsys, "classify", "--batch", str(batch))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == (
        "p=11 a=1331 b=121 label=preimage_of_index3_subgroup_level_1 n0=1 index=3"
    )
    assert lines[1] == "p=11 a=0 b=121 label=full_Cns_plus_all_levels n0=none index=3"
    rc, out, _ = run(capsys, "classify", "--batch", str(batch), "--json")
    assert rc == 0
    for line in out.splitlines():
        payload = json.loads(line)
        assert line == json.dumps(payload, separators=(",", ":"))


def test_classify_batch_errors_carry_line_numbers(capsys, tmp_path):
    batch = tmp_path / "bad.txt"
    batch.write_text("11 0 0\n")
    rc, _, err = run(capsys, "classify", "--batch", str(batch))
    assert rc == 2 and err.startswith(f"{batch}:1:")
    batch.write_text("11 2\n")
    rc, _, err = run(capsys, "classify", "--batch", str(batch))
    assert rc == 2 and "expected 'p a b'" in err
    rc, _, err = run(capsys, "classify", "--batch", str(tmp_path / "missing.txt"))
    assert rc == 2 and "cannot read batch file" in err
    batch.write_bytes(b"11 1331 121\n\xff 1 1\n")
    rc, out, err = run(capsys, "classify", "--batch", str(batch))
    assert rc == 2 and out == "" and err.startswith("cannot read batch file: 'utf-8'")
    for p in (3, 9):
        batch.write_text(f"{p} 1 1\n")
        rc, out, err = run(capsys, "classify", "--batch", str(batch))
        assert rc == 2 and out == "" and err == f"{batch}:1: p must be an odd prime > 3\n"
    batch.write_text("11 1331 121\nx 1 1\n")
    rc, out, err = run(capsys, "classify", "--batch", str(batch))
    assert rc == 2 and len(out.splitlines()) == 1 and err == f"{batch}:2: p must be an integer\n"


def test_beta_request_precision_raises_k(capsys):
    rc, out, _ = run(capsys, "beta", *EXAMPLE1, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["prime"] == 11 and payload["defect"] == 3
    assert payload["k_used"] == 2
    rc, out, _ = run(capsys, "beta", *EXAMPLE1, "--json", "--precision", "10")
    payload = json.loads(out)
    assert payload["k_used"] == 3
    assert payload["certificate_pi_digits"] == 10


def test_beta_rejects_unsupported_defect(capsys):
    rc, _, err = run(capsys, "beta", "--p", "11", "--a", "1", "--b", "1")
    assert rc == 2 and "e in {3,4,6}" in err
    for p in ("4", "9"):
        rc, out, err = run(capsys, "beta", "--p", p, "--a", "1", "--b", "1")
        assert rc == 2 and out == "" and err == "p must be an odd prime > 3\n"
    for bad in (["--precision", "0"], ["--precision", "-3"], ["--k", "-1"]):
        rc, out, err = run(capsys, "beta", *EXAMPLE1, *bad)
        assert rc == 2 and out == "", bad
        assert err.strip() and len(err.strip().splitlines()) == 1, (bad, err)
    # At p = 5, e = 6 a precision below 1 is refused before the ratio route's e < p-1.
    e6 = ["--p", "5", "--a", "25", "--b", "5"]
    for bad, message in ((["--precision", "0"], "precision must be >= 1 pi-digit"),
                         (["--precision", "1"], "the ratio route needs e < p-1 (e=6, p=5)")):
        assert run(capsys, "beta", *e6, *bad) == (2, "", message + "\n")


def test_cm_lifts_at_a_forced_level(capsys):
    rc, out, err = run(capsys, "classify", "--p", "23", "--a", "0", "--b", "1058",
                       "--k", "2", "--json")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["image_label"] == "full_Cns_plus_all_levels"
    assert payload["hodge"]["beta"]["coordinates"] == ["0", "0", "0"]
    assert payload["hodge"]["beta"]["coordinate_precisions"] == ["inf", "inf", "inf"]
    # A precision below the level's pi^7 cuts beta, but never an exact zero.
    rc, out, err = run(capsys, "classify", "--p", "23", "--a", "0", "--b", "1058",
                       "--k", "2", "--precision", "4", "--json")
    hodge = json.loads(out)["hodge"]
    assert rc == 0 and err == "" and hodge["certificate_pi_digits"] == 4
    assert hodge["beta"]["coordinates"] == ["0", "0", "0"]
    assert hodge["beta"]["coordinate_precisions"] == ["inf", "inf", "inf"]
    # At --precision 31 (k = 10) the CM sums drop no term but pass the exact
    # multinomial cap: they must raise A and B reduced, as the exact unit to
    # a power near r/6 would not finish.
    for argv in (["--p", "11", "--a", "0", "--b", "242", "--k", "3"],
                 ["--p", "23", "--a", "23", "--b", "0", "--k", "2"],
                 ["--p", "11", "--a", "0", "--b", "242", "--precision", "31"],
                 ["--p", "11", "--a", "0", "--b", "242/5", "--precision", "31"]):
        rc, out, err = run(capsys, "beta", *argv)
        assert rc == 0 and "beta: 0\n" in out, (argv, err)


@pytest.mark.parametrize("argv", [
    [*EXAMPLE1, "--k", "7"],
    [*EXAMPLE1, "--precision", "40"],
    ["--p", "23", "--a", "12167", "--b", "529", "--k", "4"],
    ["--p", "11", "--a", "1331/5", "--b", "121", "--precision", "31"],
])
def test_beta_deep_levels_are_answered(capsys, argv):
    # Each needs factorial units mod p**d with p**d past 2**26.
    rc, out, err = run(capsys, "beta", *argv, "--json")
    assert rc == 0 and err == "", err
    assert json.loads(out)["defect"] == 3


@pytest.mark.parametrize("command, extra", [
    ("beta", ["--precision", "200"]),
    ("classify", ["--k", "60"]),
    ("beta", ["--precision", "30000"]),  # N ~ 11**20001 / 2: Legendre runs on word divisions
])
def test_over_budget_requests_exit_2_before_any_arithmetic(capsys, monkeypatch,
                                                            command, extra):
    def no_work(*args, **kwargs):
        raise AssertionError("arithmetic ran before the refusal")

    monkeypatch.setattr("padic_cartan.formal_log.multinomial_exact", no_work)
    monkeypatch.setattr("padic_cartan.formal_log.multinomial_padic", no_work)
    monkeypatch.setattr("padic_cartan.eisenstein.EisensteinElement.__pow__", no_work)
    monkeypatch.setattr("padic_cartan.eisenstein.EisensteinElement.__mul__", no_work)
    rc, out, err = run(capsys, command, *EXAMPLE1, *extra)
    assert rc == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "budget" in err


@pytest.mark.parametrize("command, extra", [
    ("beta", ["--precision", "300000"]),  # k = 100000: N ~ 11**200001 / 2
    ("classify", ["--k", "100000"]),
])
def test_deep_levels_are_priced_before_any_valuation(capsys, monkeypatch, command, extra):
    # d_(p**2k) keeps a term at 2k + 3 p-digits whatever its valuation, priced
    # from p, e and k alone: no Legendre sum runs before the refusal.
    def no_valuation(*args):
        raise AssertionError("a factorial valuation ran before the refusal")

    monkeypatch.setattr("padic_cartan.padic.val_factorial", no_valuation)
    rc, out, err = run(capsys, command, *EXAMPLE1, *extra)
    assert rc == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "budget" in err


@pytest.mark.parametrize("argv", [
    ["beta", *EXAMPLE1, "--k", str(10**200)],
    ["classify", *EXAMPLE1, "--k", str(10**200)],
    ["divpoly", "--p", "11", "--e", "3", "--k", "1", "--json", "--v-alpha-inv", str(10**400)],
    ["adelic-bound", "--h-j", "0", "--index-p", "11", "--index-n", str(10**400)],
])
def test_estimates_of_user_sized_ints_refuse_without_a_float(capsys, argv):
    # A level, power or index past a float's range is priced in ints and exact
    # rationals: one stderr line and exit 2, not an OverflowError.
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and len(err.splitlines()) == 1, err


def test_a_level_past_the_budget_is_named_exactly(capsys):
    rc, out, err = run(capsys, "beta", *EXAMPLE1, "--k", str(10**20))
    assert (rc, out) == (2, "") and err.startswith(f"d_r at r ~ 11^{2 * 10**20} to pi^4 needs")


def test_parser_is_built_once_with_the_same_help_and_errors(capsys):
    from padic_cartan.cli import _build_parser

    assert _build_parser() is _build_parser()
    fresh = _build_parser.__wrapped__()
    run(capsys, "classify", *EXAMPLE1, "--json")
    for argv in (["--help"], ["classify", "--help"], ["beta", "--p", "x"],
                 ["divpoly", "--p", "11", "--e", "5", "--k", "1"], []):
        outputs = []
        for parse in (main, fresh.parse_args):
            with pytest.raises(SystemExit):
                parse(argv)
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0] != ("", "")


def test_importing_the_cli_loads_no_dataclass_machinery():
    # Compared with the modules already loaded, so a site hook cannot decide it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
            "import padic_cartan.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
            "& (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_logcoeffs_text_and_methods_agree(capsys):
    rc, out, _ = run(capsys, "logcoeffs", "--a", "1", "--b", "2", "--r-max", "11")
    assert rc == 0
    assert out.splitlines()[:3] == ["d_1 = 1", "d_3 = 0", "d_5 = 2/5"]
    rc, series_out, _ = run(
        capsys, "logcoeffs", "--a", "1", "--b", "2", "--r-max", "11",
        "--method", "series",
    )
    assert rc == 0
    assert series_out == out


def test_logcoeffs_json_and_caps(capsys):
    rc, out, _ = run(
        capsys, "logcoeffs", "--a", "1", "--b", "2", "--r-max", "7", "--json"
    )
    payload = json.loads(out)
    assert payload["coefficients"] == [[1, "1"], [3, "0"], [5, "2/5"], [7, "6/7"]]
    rc, _, err = run(capsys, "logcoeffs", "--a", "1", "--b", "2", "--r-max", "503")
    assert rc == 2 and "--force" in err
    rc, _, err = run(capsys, "logcoeffs", "--a", "1", "--b", "2", "--r-max", "0")
    assert rc == 2
    rc, _, err = run(capsys, "logcoeffs", "--a", "0", "--b", "0", "--r-max", "5")
    assert rc == 2 and "discriminant vanishes" in err
    rc, out, err = run(capsys, "logcoeffs", "--a", "1/0", "--b", "2", "--r-max", "5")
    assert rc == 2 and out == ""
    assert err == "a must be a rational like 7 or -7/4, got '1/0'\n"


def test_logcoeffs_refuses_past_the_exact_cap_even_with_force(capsys, monkeypatch):
    # The refusal must come before any route: computing the coefficients would take hours.
    _no_route(monkeypatch)
    for method in ((), ("--method", "series")):
        rc, out, err = run(capsys, "logcoeffs", "--a", "1", "--b", "1",
                           "--r-max", "20003", "--force", *method)
        assert rc == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "20001" in err


def _no_route(monkeypatch):
    """Every exact route raises, so a request that reaches one exits 2 with this line."""
    def route(*args, **kwargs):
        raise ValueError("route reached")

    monkeypatch.setattr("padic_cartan.cli.yasuda_coefficient_exact", route)
    monkeypatch.setattr("padic_cartan.cli.recurrence_logarithm", route)
    monkeypatch.setattr("padic_cartan.cli.series_inversion_logarithm", route)


def test_logcoeffs_refuses_past_the_int_str_limit_by_its_estimate(capsys, monkeypatch):
    # d_8001 of (1/23, 1/37) needs 4811 digits: the estimate refuses it before any route.
    _no_route(monkeypatch)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    base = ["logcoeffs", "--a", "1/23", "--b", "1/37", "--force", "--r-max"]
    for mode in ((), ("--json",), ("--method", "series")):
        for r_max, refused in (("8001", True), ("7141", True), ("7140", False)):
            rc, out, err = run(capsys, *base, r_max, *mode)
            assert rc == 2 and out == ""
            if refused:
                assert err.startswith(f"--r-max {r_max}: d_") and "4300-digit" in err, err
            else:
                assert err.strip() == "route reached"
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
    assert run(capsys, *base, "8001")[2].strip() == "route reached"
    monkeypatch.delattr(sys, "get_int_max_str_digits")  # before Python 3.10.7
    assert run(capsys, *base, "8001")[2].strip() == "route reached"


def test_logcoeff_digit_estimate_bounds_the_true_digits():
    # Seeded curves, a = 0, b = 0, and denominators 6 and 10 whose lcm is below
    # their product; every odd r <= 2001 against the exact d_r.
    rng = random.Random(23)
    curves = [(Fraction(1, 23), Fraction(1, 37)), (Fraction(0), Fraction(5, 7)),
              (Fraction(-3, 4), Fraction(0)), (Fraction(5, 6), Fraction(7, 10)),
              (Fraction(rng.randrange(-99, 99), 29), Fraction(rng.randrange(1, 99), 31))]
    for a, b in curves:
        bounds = [_logcoeff_digits(a, b, r) for r in range(1, 2002, 2)]
        assert bounds == sorted(bounds)  # so the bound at r_max bounds every r <= r_max
        for r in range(1, 2002, 2):
            d = yasuda_coefficient_exact(a, b, r)
            assert bounds[r // 2] >= max(len(str(abs(d.numerator))), len(str(d.denominator))), r


def test_logcoeffs_answers_the_benchmark_shapes_at_the_default_cap(capsys, monkeypatch):
    # Numerators below 100 over two of 23, 29, 31, 37, one curve with a = 0.
    _no_route(monkeypatch)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    for den_a, den_b in permutations((23, 29, 31, 37), 2):
        for a in (f"-99/{den_a}", "0"):
            rc, out, err = run(capsys, "logcoeffs", f"--a={a}", f"--b=99/{den_b}", "--r-max", "501")
            assert rc == 2 and err.strip() == "route reached", (a, den_b)


def test_divpoly_text_table_and_partition(capsys):
    rc, out, _ = run(capsys, "divpoly", "--p", "11", "--e", "3", "--k", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# g over Q_11(pi_3), degree 121"
    assert lines[-2] == "1 root of valuation inf"
    assert lines[-1] == "120 roots of valuation 1/120"


def test_divpoly_json_and_cm_shape(capsys):
    rc, out, _ = run(capsys, "divpoly", "--p", "11", "--e", "3", "--k", "2", "--json")
    payload = json.loads(out)
    assert payload["degree"] == 11**4
    assert payload["partition"] == [["inf", 1], ["1/120", 120], ["1/14520", 14520]]
    assert [n for n, _ in payload["coefficients"]] == [1, 11, 121, 1331, 14641]
    rc, out, _ = run(
        capsys, "divpoly", "--p", "11", "--e", "3", "--k", "2", "--json", "--alpha-inf"
    )
    cm = json.loads(out)
    assert [n for n, _ in cm["coefficients"]] == [1, 121, 14641]
    assert cm["partition"] == payload["partition"]
    assert cm["v_alpha_inv"] is None and cm["alpha_infinite"] is True


def test_divpoly_gates(capsys):
    rc, _, err = run(capsys, "divpoly", "--p", "11", "--e", "3", "--k", "4")
    assert rc == 2 and "--force" in err
    rc, out, _ = run(
        capsys, "divpoly", "--p", "11", "--e", "3", "--k", "4", "--force", "--json"
    )
    assert rc == 0 and json.loads(out)["degree"] == 11**8
    # divpoly has a p = 3 table, so its refusal of 9 does not claim "> 3".
    rc, _, err = run(capsys, "divpoly", "--p", "9", "--e", "3", "--k", "1")
    assert rc == 2 and err.strip() == "need an odd prime, got 9"
    assert run(capsys, "divpoly", "--p", "3", "--e", "4", "--k", "1")[0] == 0
    for p, e in (("7", "6"), ("13", "4")):
        rc, out, err = run(capsys, "divpoly", "--p", p, "--e", e, "--k", "1")
        assert (rc, out) == (2, "")
        assert err == f"e={e} does not divide p+1={int(p) + 1}; reduction is not supersingular\n"
    rc, _, err = run(
        capsys, "divpoly", "--p", "11", "--e", "3", "--k", "1", "--v-alpha-inv", "-1"
    )
    assert rc == 2 and "twist-normalize" in err


def test_adelic_bound_payloads(capsys):
    rc, out, _ = run(capsys, "adelic-bound", "--h-j", "0", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["bound_a"] == pytest.approx(1.6e17 * 480.0**3.11, rel=1e-12)
    rc, out, _ = run(
        capsys, "adelic-bound", "--h-j", "0", "--json",
        "--index-p", "11", "--index-n", "2",
    )
    per_prime = json.loads(out)["per_prime"]
    assert per_prime == {"p": 11, "n": 2, "mod_p_case": "contained", "bound": 6655}
    rc, out, _ = run(
        capsys, "adelic-bound", "--h-j", "0", "--json",
        "--index-p", "3", "--index-n", "1", "--mod-p-case", "equal",
    )
    assert json.loads(out)["per_prime"]["bound"] == 9


def test_adelic_bound_errors(capsys):
    rc, _, err = run(capsys, "adelic-bound", "--h-j", "-1")
    assert rc == 2 and "nonnegative" in err
    rc, _, err = run(capsys, "adelic-bound", "--h-j", "0", "--index-p", "11")
    assert rc == 2 and "together" in err
    rc, _, err = run(
        capsys, "adelic-bound", "--h-j", "0",
        "--index-p", "5", "--index-n", "1", "--j", str(2**4 * 3**2 * 5**7 * 23**3),
    )
    assert rc == 2 and "excluded" in err
    rc, out, err = run(
        capsys, "adelic-bound", "--h-j", "0", "--index-p", "9", "--index-n", "1"
    )
    assert rc == 2 and out == "" and err == "need an odd prime, got 9\n"
    # 1e100 overflows inside the power, 1e95 in the product; inf is no height.
    for h_j in ("1e100", "1e95", "inf"):
        rc, out, err = run(capsys, "adelic-bound", "--h-j", h_j, "--json")
        assert rc == 2 and out == "" and "h_j" in err


def test_adelic_bound_refuses_past_the_int_str_limit_by_its_estimate(capsys, monkeypatch):
    # The bound c * p**(2n-1), c <= p, is refused by the digits of p**(2n) before it is built.
    def bound(*args, **kwargs):
        raise ValueError("bound reached")

    real = cli.per_prime_index_bound
    monkeypatch.setattr(cli, "per_prime_index_bound", bound)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    base = ["adelic-bound", "--h-j", "0", "--index-p", "11", "--index-n"]
    for mode in ((), ("--json",)):
        # 11**4128 has 4299 digits, 11**4130 has 4301.
        assert run(capsys, *base, "2064", *mode) == (2, "", "bound reached\n")
        assert run(capsys, *base, "2065", *mode) == (2, "", (
            "--index-n 2065: the bound may need up to 4301 digits, "
            "over Python's 4300-digit limit for int to str conversion\n"))
        rc, out, err = run(capsys, *base, "1000000000", *mode)
        assert (rc, out) == (2, "") and err.startswith("--index-n 1000000000: the bound")
    rc, out, err = run(capsys, "adelic-bound", "--h-j", "0", "--index-p", "9", "--index-n", "9999")
    assert rc == 2 and out == "" and err == "need an odd prime, got 9\n"
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
    assert run(capsys, *base, "2065")[2] == "bound reached\n"
    monkeypatch.delattr(sys, "get_int_max_str_digits")  # before Python 3.10.7
    assert run(capsys, *base, "2065")[2] == "bound reached\n"
    monkeypatch.setattr(cli, "per_prime_index_bound", real)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    rc, out, _ = run(capsys, *base, "2064", "--json")
    assert rc == 0 and len(str(json.loads(out)["per_prime"]["bound"])) == 4299
    # The estimate bounds every row from n = 2, past the floors 30 and 147 of p = 5, 7
    # (Python's limit is at least 640 digits).
    for p in (3, 5, 7, 11, 13, 29):
        for n in range(2, 60):
            digits = len(str(real(p, n, mod_p_case="equal")))
            assert digits <= math.floor(2 * n * math.log10(p)) + 1, (p, n)


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_examples_list_and_run(capsys, monkeypatch):
    rc, out, _ = run(capsys, "examples", "--list")
    assert rc == 0
    names = out.splitlines()
    assert len(names) == 8 and names[0] == "example1_log_coefficients"
    rc, out, _ = run(capsys, "examples", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert all(r["pass"] for r in payload["results"])
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())  # as in `padic-cartan examples | head -0`
    assert main(["examples", "--list"]) == 0


@pytest.mark.parametrize("target, raises", [
    ("padic_cartan.volkov.v_alpha_table", True),  # hodge_parameters raises in checks
    ("padic_cartan.cli.v_alpha_table", False),  # only the check's own table is off
])
def test_examples_report_a_disagreeing_alpha_route(capsys, monkeypatch, target, raises):
    from padic_cartan.volkov import v_alpha_table

    _, listed, _ = run(capsys, "examples", "--list")
    monkeypatch.setattr(target, lambda *args: v_alpha_table(*args) + 1)
    rc, out, err = run(capsys, "examples")
    assert rc == 1
    assert ("Traceback" in err) == raises
    lines = out.splitlines()
    # Every check still reports, in order, after one has failed or raised.
    assert [line.split()[1].rstrip(":") for line in lines] == listed.splitlines()
    assert lines[-1].startswith("FAIL valpha_table_vs_alpha: ")


def _example1_curve_changed(cli, monkeypatch):
    monkeypatch.setattr(cli, "_EXAMPLE1", (11, 2 * 11**3, 11**2))


def _example1_n0_changed(cli, monkeypatch):
    name, p, a, b, k, _ = cli._CLASSIFY_EXAMPLES[0]
    wrong = partial(cli._check_classification, p, a, b, k, (("n0", 2),))
    monkeypatch.setattr(cli, "_EXAMPLE_CHECKS", tuple(
        (other, wrong if other == name else check) for other, check in cli._EXAMPLE_CHECKS))


def _k1_beta_is_the_k2_beta(cli, monkeypatch):
    route = cli.beta_from_logarithm
    monkeypatch.setattr(cli, "beta_from_logarithm", lambda model, k: route(model, 2))


def _recurrence_d5_off(cli, monkeypatch):
    route = cli.recurrence_logarithm

    def off(a, b, n_terms):
        d = list(route(a, b, n_terms).coefficients)
        d[5] += 1
        return FormalLogPrefix(tuple(d))

    monkeypatch.setattr(cli, "recurrence_logarithm", off)


@pytest.mark.parametrize("patch, fails", [
    # d_11 = 20 A B / 11 doubles with a, and alpha's residue moves with it.
    (_example1_curve_changed, {
        "example1_log_coefficients": ["d_11 = 40*pi^2 != 20*pi^2 mod pi^12; "],
        "example1_beta_k2_value": ["beta != 2*p*pi mod pi^7: ", "; alpha residue = 8 != 5"]}),
    (_example1_n0_changed, {"example1_classification": ["n0 = 1 != 2"]}),
    # The k = 2 beta is visible, in a pi^7 window.
    (_k1_beta_is_the_k2_beta, {"example1_beta_k1_window": [
        "beta at k=1 should vanish mod pi^4, got ", "; k=1 window should be pi^4, got pi^7"]}),
    # d_5 = 2 a / 5 with a = 11**3.
    (_recurrence_d5_off, {"dr_dual_route": [
        "d_5: multinomial 2662/5, series 2662/5, recurrence 2667/5"]}),
])
def test_examples_fail_on_a_changed_frozen_value(capsys, monkeypatch, patch, fails):
    from padic_cartan import cli

    patch(cli, monkeypatch)
    rc, out, err = run(capsys, "examples")
    assert rc == 1 and err == ""
    failed = {}
    for line in out.splitlines():
        status, name = line.split()[0], line.split()[1].rstrip(":")
        if status == "FAIL":
            failed[name] = line
        else:
            assert line == f"PASS {name}"
    assert set(failed) == set(fails)
    for name, parts in fails.items():
        assert failed[name].startswith(f"FAIL {name}: {parts[0]}")
        assert all(part in failed[name] for part in parts[1:]), failed[name]


def test_divpoly_json_refuses_lifts_past_the_int_str_limit(capsys, monkeypatch):
    # The JSON lift p**(v + k) is refused by its digit estimate, before build_gk.
    def build_gk(*args):
        raise ValueError("build_gk reached")

    monkeypatch.setattr("padic_cartan.cli.build_gk", build_gk)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    base = ["divpoly", "--p", "11", "--e", "3", "--k", "1", "--json", "--v-alpha-inv"]
    # 11**4130 has 4301 digits, 11**4129 has 4300.
    for v, refused in (("5000", True), ("4129", True), ("4128", False)):
        rc, out, err = run(capsys, *base, v)
        assert rc == 2 and out == ""
        if refused:
            assert f"--v-alpha-inv {v}" in err and "4300-digit" in err
        else:
            assert err.strip() == "build_gk reached"
    rc, _, err = run(capsys, "divpoly", "--p", "9", "--e", "3", "--k", "1", "--json",
                     "--v-alpha-inv", "5000")
    assert rc == 2 and err.strip() == "need an odd prime, got 9"
    text = [arg for arg in base if arg != "--json"]
    assert run(capsys, *text, "5000")[2].strip() == "build_gk reached"  # no lift in text
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
    assert run(capsys, *base, "5000")[2].strip() == "build_gk reached"
    monkeypatch.delattr(sys, "get_int_max_str_digits")  # before Python 3.10.7
    assert run(capsys, *base, "5000")[2].strip() == "build_gk reached"


def test_divpoly_refuses_a_degree_past_the_int_str_limit(capsys, monkeypatch):
    # Both modes print the degree p**(2k), refused by its digit estimate before build_gk.
    def build_gk(*args):
        raise ValueError("build_gk reached")

    monkeypatch.setattr("padic_cartan.cli.build_gk", build_gk)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    base = ["divpoly", "--p", "11", "--e", "3", "--force", "--k"]
    for mode, where in (([], "table"), (["--json"], "JSON"), (["--alpha-inf"], "table")):
        # 11**4128 has 4299 digits, 11**4130 has 4301.
        assert run(capsys, *base, "2064", *mode) == (2, "", "build_gk reached\n")
        rc, out, err = run(capsys, *base, "2065", *mode)
        assert rc == 2 and out == ""
        assert err == (f"--k 2065 puts 11**4130 in the {where}, over Python's 4300-digit "
                       "limit for int to str conversion\n")
    # In the JSON the lift p**(v + k) takes over from the degree once v > k.
    rc, _, err = run(capsys, *base, "2064", "--json", "--v-alpha-inv", "2066")
    assert rc == 2 and err.startswith("--v-alpha-inv 2066 puts 11**4130 in the JSON")


def test_divpoly_table_takes_alpha_inverse_by_its_valuation(capsys, monkeypatch):
    # The table builds alpha**-1 as an exact scalar at valuation v, never the int
    # p**v: v = 10**7 is answered at once.  A floor v + k past the float range, which
    # a precision adds inf to, is refused by its size before build_gk.
    base = ["divpoly", "--p", "11", "--e", "3", "--k", "1", "--v-alpha-inv"]
    rc, out, _ = run(capsys, *base, str(10**7))
    assert rc == 0 and "\t-1*11^10000001*pi^2\n" in out
    assert out.splitlines()[-1] == "120 roots of valuation 1/120"

    def build_gk(*args):
        raise ValueError("build_gk reached")

    monkeypatch.setattr("padic_cartan.cli.build_gk", build_gk)
    top = int(sys.float_info.max)
    assert run(capsys, *base, str(top - 1)) == (2, "", "build_gk reached\n")
    for v in (top, 10**400):
        assert run(capsys, *base, str(v)) == (
            2, "", f"--v-alpha-inv {v} puts a floor past the float range\n")


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="needs an int to str limit below the digits of 11**5001")
def test_divpoly_json_past_the_int_str_limit_exits_cleanly(capsys):
    rc, out, err = run(capsys, "divpoly", "--p", "11", "--e", "3", "--k", "1",
                       "--v-alpha-inv", "5000", "--json")
    assert rc == 2 and out == ""
    assert err.startswith("--v-alpha-inv 5000 puts 11**5001 in the JSON")
    rc, out, _ = run(capsys, "divpoly", "--p", "11", "--e", "3", "--k", "1",
                     "--v-alpha-inv", "5000")
    assert rc == 0 and out.splitlines()[-1] == "120 roots of valuation 1/120"


# (v(a), v(b)), None for an exact 0: v(disc) = min(3 v(a), 2 v(b)) sets e = 12/gcd(12, v(disc)),
# here e = 1, 2, 3, 4 and 6, with CM lifts among them.
_ORACLE_SHAPES = ((0, 0), (None, 0), (2, 3), (2, None), (3, 2), (4, 4), (None, 2), (1, 2),
                  (3, 5), (1, None), (1, 1), (4, 5), (None, 5))


def _oracle_requests():
    """`classify --json` and `beta --json` at a drawn --k 0..3 on two seeded curves of each
    shape at each prime: integral, over a p-free denominator, or over p**4 and p**6."""
    rng, requests = random.Random(53), []
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        for shape in _ORACLE_SHAPES:
            for _ in range(2):
                kind, den = rng.randrange(3), rng.choice([d for d in range(2, 30) if d % p])
                a, b = (0 if v is None else Fraction(
                    rng.choice((-1, 1)) * (rng.randrange(1, p) + p * rng.randrange(p * p)) * p**v,
                    (1, den, p**w)[kind]) for v, w in zip(shape, (4, 6)))
                curve = ["--p", str(p), f"--a={a}", f"--b={b}"]
                requests += [["classify", *curve, "--json"],
                             ["beta", *curve, "--k", str(rng.randrange(4)), "--json"]]
    return requests


def test_warm_cold_and_reversed_runs_give_the_same_bytes(capsys):
    # No answer may depend on what the process ran before: a run in order after one
    # clear of every cache, a run with every cache cleared before each request, and a
    # run in reverse order give the same exit code, stdout and stderr per request.
    import padic_cartan

    requests = _oracle_requests()
    padic_cartan._clear_caches()
    warm = [run(capsys, *argv) for argv in requests]
    cold = []
    for argv in requests:
        padic_cartan._clear_caches()
        cold.append(run(capsys, *argv))
    padic_cartan._clear_caches()
    backward = [run(capsys, *argv) for argv in reversed(requests)][::-1]
    for argv, answer, cold_answer, backward_answer in zip(requests, warm, cold, backward):
        assert cold_answer == answer == backward_answer, argv
    codes = collections.Counter(code for code, _, _ in warm)
    assert codes[0] > 250 and codes[2] > 50 and sum(codes.values()) == len(requests) == 416

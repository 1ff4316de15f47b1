"""End-to-end tests of the command-line interface."""

import json

import pytest

from padic_cartan.cli import main

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


def test_classify_input_errors(capsys):
    rc, _, err = run(capsys, "classify", "--p", "9", "--a", "1", "--b", "1")
    assert rc == 2 and err.strip() == "p must be an odd prime > 3"
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


def test_classify_precision_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("PADIC_CARTAN_PRECISION", "1e")
    rc, out, _ = run(capsys, "classify", *EXAMPLE1, "--json")
    assert rc == 0
    hodge = json.loads(out)["hodge"]
    assert hodge["certificate_pi_digits"] == 3
    assert hodge["alpha"] is None  # beta invisible in the capped window
    rc, out, _ = run(capsys, "classify", *EXAMPLE1, "--json", "--precision", "4e")
    assert rc == 0
    assert json.loads(out)["hodge"]["certificate_pi_digits"] == 7


def test_classify_default_k_max_is_two(capsys):
    # v(beta) = 7/3 wants k = 3; the CLI caps the adaptive level at 2.
    rc, out, _ = run(
        capsys, "classify", "--p", "11", "--a", "14641", "--b", "121", "--json"
    )
    assert rc == 0
    hodge = json.loads(out)["hodge"]
    assert hodge["k_used"] == 2 and hodge["certificate_pi_digits"] == 7


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
    rc, _, err = run(capsys, "divpoly", "--p", "9", "--e", "3", "--k", "1")
    assert rc == 2 and err.strip() == "p must be an odd prime > 3"
    rc, _, err = run(capsys, "divpoly", "--p", "7", "--e", "6", "--k", "1")
    assert rc == 2 and "does not divide" in err
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
    # 1e100 overflows inside the power, 1e95 in the product; inf is no height.
    for h_j in ("1e100", "1e95", "inf"):
        rc, out, err = run(capsys, "adelic-bound", "--h-j", h_j, "--json")
        assert rc == 2 and out == "" and "h_j" in err


def test_examples_list_and_run(capsys):
    rc, out, _ = run(capsys, "examples", "--list")
    assert rc == 0
    names = out.splitlines()
    assert len(names) == 8 and names[0] == "example1_log_coefficients"
    rc, out, _ = run(capsys, "examples", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert all(r["pass"] for r in payload["results"])

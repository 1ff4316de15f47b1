"""Tests of the benchmark harness itself (not of the package it measures)."""

from __future__ import annotations

import os
import sys
from array import array
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
import harness  # noqa: E402


# -- percentile rule --------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert not harness.tail_is_resolved(99)
    assert harness.tail_is_resolved(100)
    assert not harness.tail_is_resolved(8)
    assert harness.tail(list(range(1, 101))) == (90, 10)
    assert harness.tail(list(range(1, 100))) == (90, 9)
    assert harness.tail([5.0, 1.0, 3.0]) == (5.0, 0)


# -- self time ----------------------------------------------------------------------


def test_self_time_subtracts_merged_clipped_children():
    # 0 root [0, 10]; 1 a [1, 4] with 2 [2, 3]; 3 b [5, 9] whose children
    # 4 [5, 7] and 5 [6, 8] overlap and 6 [8.5, 12] runs past its parent.
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0, 8.5]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0, 12.0]
    parent = [-1, 0, 1, 0, 3, 3, 3]
    own = harness.self_times(start, end, parent)
    assert own == pytest.approx([3.0, 2.0, 1.0, 0.5, 2.0, 2.0, 3.5])


def _spans(rows, names, op_end, op_bytes):
    """Trace data as the traced child writes it, from (name, s, e, parent, op)."""
    return {
        "names": names,
        "name_of": array("i", [names.index(r[0]) for r in rows]),
        "start": array("d", [r[1] for r in rows]),
        "end": array("d", [r[2] for r in rows]),
        "parent": array("i", [r[3] for r in rows]),
        "op_of": array("i", [r[4] for r in rows]),
        "op_end": array("d", op_end),
        "op_bytes": array("q", op_bytes),
        "max_bits": 12,
        "unit_table_entries": 0,
    }


def test_layer_metrics_per_op_and_in_flight_spans_dropped():
    names = [
        "cli.main",
        "formal_log.yasuda",
        "padic.multinomial_valuation",
        "padic.multinomial_exact",
        "padic.mul",
    ]
    rows = [
        ("cli.main", 0.0, 0.0, -1, 0),  # never closed: the child was stopped
        ("formal_log.yasuda", 1.0, 3.0, 0, 0),
        ("padic.multinomial_valuation", 1.0, 1.5, 1, 0),
        ("padic.multinomial_valuation", 1.5, 2.0, 1, 0),
        ("padic.multinomial_exact", 2.0, 2.5, 1, 0),
        ("padic.mul", 4.0, 5.0, 0, 1),
        ("padic.mul", 6.5, 7.0, 0, 2),  # op 2 never finished
    ]
    data = _spans(rows, names, op_end=[3.5, 6.0], op_bytes=[100, 300])
    m = harness.layer_metrics(data, ops=2, traced_wall_s=6.0, untraced_wall_s=4.0)
    assert m["padic.mul.calls"][0] == 0.5
    assert m["padic.mul.self_s"][0] == pytest.approx(0.5)
    assert m["formal_log.yasuda.self_s"][0] == pytest.approx(0.25)
    # cli.main is closed at the end of op 1 (6.0) and covers yasuda + mul.
    assert m["cli.self_s"][0] == pytest.approx((6.0 - 2.0 - 1.0) / 2)
    assert m["formal_log.pairs_visited"][0] == 1.0
    assert m["formal_log.terms_kept"][0] == 0.5
    assert m["formal_log.kept_ratio"][0] == 0.5
    assert m["cli.stdout_bytes"][0] == 150.0
    assert m["trace.overhead_ratio"][0] == 1.5


# -- failure accounting -------------------------------------------------------------


def _fake_child(body):
    return [sys.executable, "-c", "import sys, time\nprint('ready', flush=True)\n" + body]


def test_child_exiting_early_fails_every_op_without_output():
    run = harness.drive(
        _fake_child("print('{}'); print('{}'); sys.exit(2)"),
        env=dict(os.environ),
        seconds=30,
        per_pass=5,
        hard_seconds=30,
    )
    assert (run.ops, run.returncode, run.stopped) == (2, 2, False)
    assert harness.account(run, given=5, failed_checks=0) == (5, 3)
    assert harness.account(run, given=5, failed_checks=1) == (5, 4)


def test_clean_exit_with_missing_lines_still_fails_them():
    run = harness.drive(
        _fake_child("print('{}')"), dict(os.environ), 30, per_pass=5, hard_seconds=30
    )
    assert (run.ops, run.returncode, run.stopped) == (1, 0, False)
    assert harness.account(run, given=4, failed_checks=0) == (4, 3)


def test_stopped_child_counts_only_printed_ops():
    run = harness.drive(
        _fake_child("while True:\n    print('{}', flush=True)\n    time.sleep(0.01)"),
        dict(os.environ),
        seconds=0.2,
        per_pass=3,
        hard_seconds=30,
    )
    assert run.stopped and run.ops % 3 == 0 and run.ops >= 3
    assert harness.account(run, given=10**6, failed_checks=0) == (run.ops, 0)
    assert len(run.latencies_s()) == run.ops
    stamps = [0.5 * i * i for i in range(run.ops + 3)]  # the child wrote more
    assert run.latencies_s(stamps) == [0.5 * (2 * i + 1) for i in range(run.ops)]
    assert run.maxrss_kb > 0


def test_child_with_no_output_is_one_failed_op():
    run = harness.drive(_fake_child("sys.exit(1)"), dict(os.environ), 30, 5, 30)
    assert harness.account(run, given=0, failed_checks=0) == (1, 1)


# -- corpus and correctness gate -----------------------------------------------------


def test_corpus_is_a_function_of_the_seed():
    for workload in corpus.WORKLOADS.values():
        first, per_pass = corpus.build(workload, 7, passes=2)
        again, _ = corpus.build(workload, 7, passes=2)
        other, _ = corpus.build(workload, 8, passes=2)
        assert first == again and first != other
        assert len(first) == 2 * per_pass


def test_expected_fields_match_the_readme_example():
    want = corpus.expected_classify(11, 11**3, 11**2)
    assert want["image_label"] == "preimage_of_index3_subgroup_level_1"
    assert (want["defect"], want["n0"], want["index_at_level"]) == (3, 1, 3)
    assert want["hodge"] == {"v_beta": "4/3", "epsilon": 1, "v_alpha": 0}
    canonical = corpus.expected_classify(11, 11, 11**2)
    assert canonical["image_label"] == "out_of_scope(canonical_subgroup)"
    assert canonical["hodge"]["v_beta"] == "1/4"


def _readme_payload():
    from padic_cartan import classify

    return classify(11, 11**3, 11**2, precision=None, k_cap=2).to_dict()


def test_gate_flags_a_wrong_field():
    want = corpus.expected_classify(11, Fraction(11**3), Fraction(11**2))
    payload = _readme_payload()
    assert corpus.check_classify(payload, want) == []
    wrong = dict(payload, hodge=dict(payload["hodge"], v_alpha=1))
    assert corpus.check_classify(wrong, want) == ["hodge.v_alpha"]


def test_gate_reads_v_beta_off_the_log_route_digits():
    want = corpus.expected_classify(11, Fraction(11**3), Fraction(11**2))
    payload = _readme_payload()
    beta = payload["hodge"]["beta"]
    assert beta["coordinates"] == ["0", "22", "0"]
    assert corpus.beta_valuation(beta, 11) == (Fraction(4, 3), Fraction(8, 3))

    def with_coords(coords, precisions=None):
        new = dict(beta, coordinates=coords)
        if precisions is not None:
            new["coordinate_precisions"] = precisions
        return dict(payload, hodge=dict(payload["hodge"], beta=new))

    # v(beta) = 0 and 7/3 are both wrong.  A beta that is zero mod p**2 in
    # every coordinate should have shown the 4/3 term; zero mod p only
    # bounds v(beta) below by 1, which 4/3 meets.
    assert corpus.check_classify(with_coords(["1", "22", "0"]), want) == ["hodge.beta"]
    assert corpus.check_classify(with_coords(["0", "242", "0"]), want) == ["hodge.beta"]
    assert corpus.check_classify(with_coords(["0", "0", "0"], [2, 2, 2]), want) == ["hodge.beta"]
    assert corpus.check_classify(with_coords(["0", "0", "0"], [1, 1, 1]), want) == []


def test_gate_agrees_with_the_cli_on_one_shallow_pass():
    from padic_cartan import classify

    ops, _ = corpus.build(corpus.WORKLOADS["shallow-batch"], 0, passes=1)
    for p, a, b in ops[::3]:
        payload = classify(p, a, b, precision=None, k_cap=2).to_dict()
        assert corpus.check_classify(payload, corpus.expected_classify(p, a, b)) == [], (p, a, b)


def test_layer_metric_names_match_benchmark_json():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    data = _spans([("cli.main", 0.0, 1.0, -1, 0)], ["cli.main"], [1.0], [10])
    produced = harness.layer_metrics(data, 1, 1.0, 1.0)
    assert {name: unit for name, (_, unit) in produced.items()} == declared

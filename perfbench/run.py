"""Layered benchmark of the padic-cartan CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is read from ./src; no
install or build step).  Workloads are defined, with the reason for each, in
perfbench/corpus.py: shallow-batch, deep-batch and exact-logcoeffs.

Each run is a single-client closed loop: one child process works through the
seeded corpus via `padic_cartan.cli.main` with the CLI defaults (--k-max 2,
precision 4e), and the next op starts when the previous one has printed.
The child runs the whole number of corpus passes that comes closest to S
seconds.

--trace 0 reports the end-to-end metrics:
  setup_s         median time from spawning a child to its "ready" after the
                  CLI has run an empty batch (half the spawns before the
                  main run, half after it)
  ops_per_s       ops completed / (time of the last op line - ready)
  latency_p50_ms  median time from one op line to the next, by the child's
                  clock as it writes them
  latency_p90_ms  nearest-rank p90 of the same; its sample count and whether
                  ten samples lie beyond it are printed beside it
  peak_rss_mb     the child's max RSS from wait4
--trace 1 runs the same corpus with every layer's public functions wrapped,
then the same ops untraced, and reports per-layer metrics per op plus
trace.overhead_ratio (traced / untraced wall time).

Every op is checked: classify payloads against closed-form expectations,
logcoeffs by byte-identity of the two routes.  The last stdout line is the
JSON result; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
sys.path[:0] = [HERE, SRC]
if not os.path.isfile(os.path.join(SRC, "padic_cartan", "cli.py")):
    sys.exit(f"no package source under {SRC}; run from a source checkout")

import corpus  # noqa: E402
import harness  # noqa: E402

SETUP_SPAWNS = 12
# A child still running this long after ready is stopped where it is.
HARD_EXTRA_S = 45
HARD_CAP_S = 80


def _env():
    env = dict(os.environ, PYTHONUNBUFFERED="1")  # one write per op line
    env.pop("PADIC_CARTAN_PRECISION", None)  # the CLI default, 4e
    return env


def _child_argv(mode, path, spans=None, stamps=None):
    argv = [sys.executable, CHILD, mode, path]
    if spans:
        argv += ["--trace", spans]
    if stamps:
        argv += ["--stamps", stamps]
    return argv


def measure_setup(argv, env, spawns):
    """Times from spawn to "ready" of `spawns` setup children, one after another.

    Interpreter teardown comes after "ready" and is not timed.
    """
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        code = proc.wait()
        if code != 0 or line.rstrip(b"\n") != harness.READY:
            raise RuntimeError(f"CLI failed on an empty batch (exit {code})")
        times.append(elapsed)
    return times


def write_input(workload, ops, work):
    if workload.command == "classify":
        path = os.path.join(work, "batch.txt")
        with open(path, "w", encoding="utf-8") as handle:
            for p, a, b in ops:
                handle.write(corpus.batch_line(p, a, b) + "\n")
    else:
        path = os.path.join(work, "ops.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([[str(a), str(b)] for a, b in ops], handle)
    return path


def check_ops(workload, ops, run):
    """Number of printed ops that fail their correctness check."""
    bad = 0
    for line, op in zip(run.lines, ops):
        try:
            record = json.loads(line)
        except ValueError:
            bad += 1
            continue
        if workload.command == "classify":
            ok = not corpus.check_classify(record, corpus.expected_classify(*op))
        else:
            (code_m, out_m), (code_s, out_s) = record["multinomial"], record["series"]
            ok = code_m == code_s == 0 and out_m == out_s and out_m.startswith("d_1 = 1\n")
        bad += not ok
    return bad


def stdout_sha256(workload, run, per_pass):
    """SHA-256 of the CLI's stdout bytes for the first pass (or what exists)."""
    digest = hashlib.sha256()
    for line in run.lines[:per_pass]:
        if workload.command == "classify":
            digest.update(line + b"\n")
        else:
            digest.update(json.loads(line)["multinomial"][1].encode())
    return digest.hexdigest(), min(per_pass, run.ops)


def _drive(argv, env, seconds, per_pass, stop_after=None):
    hard = min(seconds + HARD_EXTRA_S, HARD_CAP_S)
    return harness.drive(argv, env, seconds, per_pass, hard, stop_after)


def end_to_end(workload, ops, per_pass, path, seconds, work, env, report):
    empty = os.path.join(work, "empty.txt")
    open(empty, "w").close()
    setup_argv = _child_argv("setup", empty)
    measure_setup(setup_argv, env, 1)  # warm-up: the first spawn may compile bytecode
    setup_times = measure_setup(setup_argv, env, SETUP_SPAWNS // 2)
    stamps_file = os.path.join(work, "stamps.bin")
    run = _drive(_child_argv(workload.command, path, stamps=stamps_file), env, seconds, per_pass)
    setup_times += measure_setup(setup_argv, env, SETUP_SPAWNS - SETUP_SPAWNS // 2)
    setup_s = statistics.median(setup_times)
    failed_checks = check_ops(workload, ops, run)
    attempted, failed = harness.account(run, len(ops), failed_checks)
    stamps = array("d")
    if os.path.exists(stamps_file):  # a child that crashed wrote none
        with open(stamps_file, "rb") as handle:
            stamps.frombytes(handle.read())
    lat = [x * 1000.0 for x in run.latencies_s(stamps if len(stamps) > run.ops else None)]
    lat = lat or [0.0]
    p90, beyond = harness.tail(lat)
    sha, hashed = stdout_sha256(workload, run, per_pass)
    report(f"ops {run.ops} in {run.ops / per_pass:.2f} passes of {per_pass}, "
           f"{run.wall_s:.2f} s after ready; child exit {run.returncode}"
           f"{' (stopped)' if run.stopped else ''}")
    report(f"latency_p90_ms over {len(lat)} samples, {beyond} beyond it: "
           f"{'resolved' if harness.tail_is_resolved(len(lat)) else 'fewer than 10 beyond, indicative only'}")
    report(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted})")
    report(f"stdout_sha256 {sha} over the first {hashed} ops")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run.ops / run.wall_s if run.wall_s else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (run.maxrss_kb / 1024.0, "MB"),
    }
    return attempted, failed, metrics


def per_layer(workload, ops, per_pass, path, seconds, work, env, report):
    spans = os.path.join(work, "spans.pickle")
    traced = _drive(_child_argv(workload.command, path, spans), env, seconds, per_pass)
    attempted, failed = harness.account(traced, len(ops), check_ops(workload, ops, traced))
    if traced.ops == 0:
        raise RuntimeError("the traced child finished no op")
    plain = _drive(_child_argv(workload.command, path), env, seconds, per_pass,
                   stop_after=traced.ops)
    more_attempted, more_failed = harness.account(
        plain, traced.ops, check_ops(workload, ops, plain))
    with open(spans, "rb") as handle:
        data = pickle.load(handle)  # written by our own child
    metrics = harness.layer_metrics(data, traced.ops, traced.wall_s, plain.wall_s)
    report(f"traced ops {traced.ops}, {traced.wall_s / traced.ops:.4f} s/op traced, "
           f"{plain.wall_s / max(plain.ops, 1):.4f} s/op untraced")
    return attempted + more_attempted, failed + more_failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = corpus.WORKLOADS[args.workload]
    ops, per_pass = corpus.build(workload, args.seed)
    work = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    def report(text):
        print(f"# {workload.name}: {text}", flush=True)

    try:
        path = write_input(workload, ops, work)
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(
            workload, ops, per_pass, path, args.seconds, work, _env(), report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it
    for name, (value, unit) in metrics.items():
        report(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

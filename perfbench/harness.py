"""Parent-side machinery: drive one child, time its ops, turn spans into layers.

A child prints "ready" once the package is imported, then one line per op.
`drive` timestamps each line as it arrives, stops the child with SIGINT at
the whole-pass boundary closest to the time budget, and reads the child's
peak RSS from `wait4`.  Everything here is independent of the workload.
"""

from __future__ import annotations

import math
import os
import selectors
import signal
import subprocess
import time
from dataclasses import dataclass, field

READY = b"ready"
# Samples that must lie beyond a tail percentile for it to be meaningful.
TAIL_MIN_BEYOND = 10


@dataclass
class ChildRun:
    t_ready: float = None
    times: list = field(default_factory=list)  # arrival time of each op line
    lines: list = field(default_factory=list)  # the op lines, without "\n"
    returncode: int = None
    stopped: bool = False  # True when the parent ended the child
    maxrss_kb: int = 0

    @property
    def ops(self):
        return len(self.lines)

    @property
    def wall_s(self):
        """Time from ready to the last op line (0 without any op)."""
        return self.times[-1] - self.t_ready if self.times else 0.0

    def latencies_s(self, stamps=None):
        """Per-op latency: time since the previous op line (or since ready).

        `stamps` are the child's own clock readings for "ready" and for each
        line it wrote; they leave out the parent's wake-up delay, which is
        not small next to a sub-millisecond op.  Without them, the parent's
        arrival times are used.
        """
        marks = [self.t_ready] + self.times if stamps is None else stamps[: self.ops + 1]
        return [b - a for a, b in zip(marks, marks[1:])]


def _wait4(pid, timeout):
    """Reap `pid` within `timeout` seconds (SIGKILL after); (status, rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return status, usage
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            return status, usage
        time.sleep(0.005)


def _pass_closest(run, per_pass, seconds):
    """At a pass boundary: is stopping here closer to `seconds` than after
    one more pass of the same length would be?"""
    elapsed = run.times[-1] - run.t_ready
    prev = run.times[-per_pass - 1] if run.ops > per_pass else run.t_ready
    return elapsed + (run.times[-1] - prev) / 2 >= seconds


def drive(argv, env, seconds, per_pass, hard_seconds, stop_after=None):
    """Run one child for the whole number of passes closest to `seconds`.

    `stop_after` stops after exactly that many ops instead.  At
    `hard_seconds` after ready the child is stopped wherever it is.
    """
    run = ChildRun()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    fd = proc.stdout.fileno()
    sel = selectors.DefaultSelector()
    sel.register(fd, selectors.EVENT_READ)
    spawned = time.perf_counter()
    buf = bytearray()
    eof = False
    try:
        while not eof and not run.stopped:
            base = run.t_ready if run.t_ready is not None else spawned
            left = base + hard_seconds - time.perf_counter()
            if left <= 0:
                run.stopped = True
                break
            if not sel.select(left):
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                eof = True
            buf += chunk
            while not run.stopped:
                cut = buf.find(b"\n")
                if cut < 0:
                    break
                line = bytes(buf[:cut])
                del buf[: cut + 1]
                if run.t_ready is None:
                    if line != READY:
                        continue  # not our child; it will fail the run
                    run.t_ready = now
                    continue
                run.times.append(now)
                run.lines.append(line)
                if stop_after is not None:
                    run.stopped = run.ops >= stop_after
                elif run.ops % per_pass == 0:
                    run.stopped = _pass_closest(run, per_pass, seconds)
        if run.stopped:
            # The child is not reaped before _wait4, so its pid is still ours.
            os.kill(proc.pid, signal.SIGINT)
        # Keep the pipe drained so a child blocked on a write can exit.
        while not eof:
            if not sel.select(30):
                break
            eof = not os.read(fd, 1 << 16)
    finally:
        sel.close()
        proc.stdout.close()
        if proc.returncode is None:
            status, usage = _wait4(proc.pid, 60)
            proc.returncode = os.waitstatus_to_exitcode(status)
            run.maxrss_kb = usage.ru_maxrss
    run.returncode = proc.returncode
    return run


def account(run, given, failed_checks):
    """(attempted, failed) for one child run.

    A child the parent stopped attempted exactly the ops it printed.  A
    child that ended by itself was given `given` ops: every one without an
    output line failed, whatever its exit code.  An op that printed but did
    not pass its check (`failed_checks` of them) also failed.
    """
    if run.stopped:
        attempted = run.ops
        failed = failed_checks
    else:
        attempted = max(given, run.ops)
        failed = failed_checks + (attempted - run.ops)
    if attempted == 0:  # nothing came back at all: one failed op
        return 1, 1
    return attempted, failed


# -- statistics -------------------------------------------------------------------


def tail(values, q=0.9):
    """Nearest-rank q-quantile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_is_resolved(n, q=0.9):
    """Whether n samples leave at least TAIL_MIN_BEYOND beyond the q-quantile."""
    return n - max(1, math.ceil(q * n)) >= TAIL_MIN_BEYOND


# -- spans ------------------------------------------------------------------------


def self_times(start, end, parent):
    """Each span's duration minus the part of it its children cover.

    Spans are parallel sequences; parent[i] is an index or -1.  Child
    intervals are clipped to the parent and merged before subtracting.
    """
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def load_spans(data, ops):
    """Spans of the first `ops` ops, with unfinished ancestors closed at the
    end of the last op.  Returns (names, start, end, parent) with parent
    indices remapped into the kept list.
    """
    n = min(
        len(data["name_of"]),
        len(data["start"]),
        len(data["end"]),
        len(data["parent"]),
        len(data["op_of"]),
    )
    last = data["op_end"][ops - 1]
    keep = [i for i in range(n) if data["op_of"][i] < ops]
    index = {old: new for new, old in enumerate(keep)}
    names, start, end, parent = [], [], [], []
    for i in keep:
        names.append(data["names"][data["name_of"][i]])
        start.append(data["start"][i])
        stop = data["end"][i]
        end.append(last if stop == 0.0 or stop > last else stop)
        parent.append(index.get(data["parent"][i], -1))
    return names, start, end, parent


def layer_metrics(data, ops, traced_wall_s, untraced_wall_s):
    """The per-layer metrics of one traced run of `ops` ops."""
    names, start, end, parent = load_spans(data, ops)
    own = self_times(start, end, parent)
    calls, self_s = {}, {}
    visited = kept = 0
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if parent[i] >= 0 and names[parent[i]] == "formal_log.yasuda":
            if name == "padic.multinomial_valuation":
                visited += 1
            elif name in ("padic.multinomial_exact", "padic.multinomial_padic"):
                kept += 1

    def per_op(table, key):
        return table.get(key, 0) / ops

    m = {}
    for layer in (
        "padic.mul",
        "padic.multinomial_padic",
        "padic.multinomial_exact",
        "eisenstein.mul",
        "eisenstein.pow",
        "eisenstein.inverse",
        "formal_log.yasuda",
    ):
        m[f"{layer}.calls"] = (per_op(calls, layer), "1/op")
        m[f"{layer}.self_s"] = (per_op(self_s, layer), "s/op")
    m["padic.mul.max_bits"] = (data["max_bits"], "bit")
    m["padic.unit_table.entries"] = (data["unit_table_entries"], "count")
    m["curve.semistability_defect.calls_per_op"] = (
        per_op(calls, "curve.semistability_defect"),
        "1/op",
    )
    m["curve.semistability_defect.self_s"] = (
        per_op(self_s, "curve.semistability_defect"),
        "s/op",
    )
    m["curve.good_model_over_L.calls_per_op"] = (
        per_op(calls, "curve.good_model_over_L"),
        "1/op",
    )
    m["formal_log.pairs_visited"] = (visited / ops, "1/op")
    m["formal_log.terms_kept"] = (kept / ops, "1/op")
    m["formal_log.kept_ratio"] = (kept / visited if visited else 0.0, "ratio")
    m["formal_log.exact.self_s"] = (per_op(self_s, "formal_log.exact"), "s/op")
    m["formal_log.series.self_s"] = (per_op(self_s, "formal_log.series"), "s/op")
    m["volkov.hodge_parameters.self_s"] = (
        per_op(self_s, "volkov.hodge_parameters"),
        "s/op",
    )
    m["volkov.beta_from_logarithm.calls_per_op"] = (
        per_op(calls, "volkov.beta_from_logarithm"),
        "1/op",
    )
    m["classifier.classify.self_s"] = (per_op(self_s, "classifier.classify"), "s/op")
    m["classifier.to_dict.self_s"] = (per_op(self_s, "classifier.to_dict"), "s/op")
    m["cli.self_s"] = (per_op(self_s, "cli.main"), "s/op")
    m["cli.stdout_bytes"] = (data["op_bytes"][ops - 1] / ops, "B/op")
    ratio = traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0
    m["trace.overhead_ratio"] = (ratio, "ratio")
    return m

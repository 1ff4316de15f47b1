"""Child process of the benchmark: runs a corpus through `padic_cartan.cli.main`.

    python3 perfbench/child.py classify BATCH_FILE [--trace SPANS_FILE] [--stamps FILE]
    python3 perfbench/child.py logcoeffs OPS_FILE [--trace SPANS_FILE] [--stamps FILE]
    python3 perfbench/child.py setup EMPTY_BATCH_FILE

classify mode calls the CLI once as `classify --batch BATCH_FILE --json`, so
stdout carries one JSON line per curve.  logcoeffs mode reads a JSON list of
[a, b] pairs and, for each, calls `logcoeffs --r-max 501` with
`--method multinomial` and then `--method series`, printing one JSON line per
pair with both outputs.  Before the first op the child prints "ready".
setup mode runs the CLI on an empty batch, prints "ready" and exits, so the
time to "ready" is the time before a first op could start.

The parent stops the child with SIGINT once it has read enough ops.  With
--trace the spans recorded so far are written out at that point, and with
--stamps the time.perf_counter() reading of "ready" and of every op line
(doubles in native byte order).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


class LineStamps:
    """Text stream proxy that records the time each newline is written."""

    def __init__(self, stream):
        self.stream = stream
        self.stamps = array("d")

    def write(self, text):
        # Stamp before forwarding: once the parent has the line it may stop
        # this process at any moment.
        self.stamps.extend([time.perf_counter()] * text.count("\n"))
        return self.stream.write(text)

    def flush(self):
        self.stream.flush()


def _run_logcoeffs(cli, ops_file, tracer):
    from corpus import logcoeff_argv

    with open(ops_file, encoding="utf-8") as handle:
        ops = json.load(handle)
    for a, b in ops:
        record = {}
        for method in ("multinomial", "series"):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(logcoeff_argv(a, b, method))
            record[method] = [code, buffer.getvalue()]
            if tracer is not None:
                tracer.stdout_bytes += len(buffer.getvalue().encode())
        if tracer is not None:
            tracer.end_op()
        sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")


def main(argv):
    mode, path = argv[0], argv[1]
    options = dict(zip(argv[2::2], argv[3::2]))
    spans_file = options.get("--trace")
    stamps_file = options.get("--stamps")
    from padic_cartan import cli, padic

    if mode == "setup":
        code = cli.main(["classify", "--batch", path, "--json"])
        sys.stdout.write("ready\n")
        return code
    tracer = None
    if spans_file is not None:
        from tracer import LineCounter, Tracer

        tracer = Tracer()
        tracer.install()
    stamper = None
    if stamps_file is not None:
        stamper = sys.stdout = LineStamps(sys.stdout)
    sys.stdout.write("ready\n")
    try:
        if mode == "classify":
            if tracer is not None:
                sys.stdout = LineCounter(sys.stdout, tracer)
            code = cli.main(["classify", "--batch", path, "--json"])
        else:
            code = _run_logcoeffs(cli, path, tracer) or 0
    except KeyboardInterrupt:
        code = 0
    finally:
        sys.stdout = sys.__stdout__
        if stamper is not None:
            with open(stamps_file, "wb") as handle:
                stamper.stamps.tofile(handle)
        if tracer is not None:
            tables = getattr(padic, "_unit_tables", {})
            entries = sum(len(t.table) for t in tables.values())
            tracer.dump(spans_file, entries)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

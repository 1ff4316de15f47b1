"""In-memory span recorder wrapped around the package's public functions.

Only the benchmark's traced child imports this module.  `Tracer.install`
replaces each target function at every `padic_cartan` module attribute and
class attribute that holds it, because `volkov`, `formal_log` and `cli` import
names directly: wrapping only the definition would miss those calls.

A span is (name id, start, end, parent span, op id), kept in flat arrays and
pickled once when the run ends.  The op id is the number of ops the child had
finished when the span started.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from array import array

# (span name, defining module, attribute path).  Several attributes may hold
# one function object (PadicScalar.__mul__ is also __rmul__); all are wrapped.
TARGETS = (
    ("padic.mul", "padic_cartan.padic", "PadicScalar.__mul__"),
    ("padic.multinomial_padic", "padic_cartan.padic", "multinomial_padic"),
    ("padic.multinomial_exact", "padic_cartan.padic", "multinomial_exact"),
    ("padic.multinomial_valuation", "padic_cartan.padic", "multinomial_valuation"),
    ("eisenstein.mul", "padic_cartan.eisenstein", "EisensteinElement.__mul__"),
    ("eisenstein.pow", "padic_cartan.eisenstein", "EisensteinElement.__pow__"),
    ("eisenstein.inverse", "padic_cartan.eisenstein", "EisensteinElement.inverse"),
    ("curve.semistability_defect", "padic_cartan.curve", "semistability_defect"),
    ("curve.good_model_over_L", "padic_cartan.curve", "good_model_over_L"),
    ("formal_log.yasuda", "padic_cartan.formal_log", "yasuda_coefficient"),
    ("formal_log.exact", "padic_cartan.formal_log", "yasuda_coefficient_exact"),
    ("formal_log.series", "padic_cartan.formal_log", "series_inversion_logarithm"),
    ("volkov.hodge_parameters", "padic_cartan.volkov", "hodge_parameters"),
    ("volkov.beta_from_logarithm", "padic_cartan.volkov", "beta_from_logarithm"),
    ("classifier.classify", "padic_cartan.classifier", "classify"),
    ("classifier.to_dict", "padic_cartan.classifier", "ImageReport.to_dict"),
    ("cli.main", "padic_cartan.cli", "main"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack = [-1]
        self.op = 0
        self.op_end = array("d")  # time each op finished
        self.op_bytes = array("q")  # cumulative stdout bytes at each op end
        self.stdout_bytes = 0
        self.max_bits = 0

    def end_op(self):
        self.op_end.append(time.perf_counter())
        self.op_bytes.append(self.stdout_bytes)
        self.op += 1

    def wrap(self, fn, name, probe=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, op_of, stack = self.parent, self.op_of, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op_of.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _probe_bits(self, args):
        for x in args:
            unit = getattr(x, "unit", None)
            if unit is not None and unit.bit_length() > self.max_bits:
                self.max_bits = unit.bit_length()

    def install(self):
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if n == "padic_cartan" or n.startswith("padic_cartan.")
        ]
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            original = owner
            probe = self._probe_bits if name == "padic.mul" else None
            wrapper = self.wrap(original, name, probe)
            holders = list(modules)
            holders += [v for m in modules for v in vars(m).values() if isinstance(v, type)]
            hits = 0
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        hits += 1
            if not hits:
                raise RuntimeError(f"trace target {module_name}.{path} not found")

    def dump(self, path, unit_table_entries):
        data = {
            "names": self.names,
            "name_of": self.name_of,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op_of": self.op_of,
            "op_end": self.op_end,
            "op_bytes": self.op_bytes,
            "max_bits": self.max_bits,
            "unit_table_entries": unit_table_entries,
        }
        with open(path, "wb") as handle:
            pickle.dump(data, handle, protocol=pickle.HIGHEST_PROTOCOL)


class LineCounter:
    """Text stream proxy that ends one op per newline written through it."""

    def __init__(self, stream, tracer):
        self.stream = stream
        self.tracer = tracer

    def write(self, text):
        # Count before forwarding: once the parent has the line it may stop
        # this process at any moment.
        self.tracer.stdout_bytes += len(text.encode())
        for _ in range(text.count("\n")):
            self.tracer.end_op()
        self.stream.write(text)
        return len(text)

    def flush(self):
        self.stream.flush()

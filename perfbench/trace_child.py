"""Run one nlrd CLI command with a span around every call into a traced
public function, and write the spans to a JSON file.

    python3 perfbench/trace_child.py SPANS.json -- CLI_ARGS...

A span is ``[name, start, end, parent, extra]``: ``parent`` is the index of
the enclosing span (or null), ``extra`` holds counts read from the call's
arguments or result. Wrappers only read the clock and count; arguments and
results pass through untouched, so the artifacts are byte-identical to an
untraced run of the same command.

Each function is replaced in every ``nlrd.*`` namespace that holds it, and
methods are replaced on their class. This happens only inside this process;
the package sources are not touched.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from functools import wraps

import numpy as np


class Tracer:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, extra=None):
        """``name`` is a string or a function of (args, kwargs) giving one;
        ``extra(args, kwargs, result)`` returns a dict of counts."""

        @wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, out)
            return out

        return traced


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _conv_name(args, kwargs):
    # path 'both' returns the direct result, so it is counted as direct
    if _arg(args, kwargs, 2, "path", "fast") == "fast":
        return "convolve.fast"
    return f"convolve.direct{np.ndim(args[0])}d"


def _conv_counts(next_fast_len):
    def counts(args, kwargs, out):
        arr, k = np.asarray(args[0]), args[1]
        if _arg(args, kwargs, 2, "path", "fast") == "fast":
            return {"padded_cells": int(np.prod([next_fast_len(n + 2 * k.reach)
                                                 for n in arr.shape]))}
        return {"tap_cells": int(np.count_nonzero(k.weights)) * arr.size}

    return counts


def install(tracer: Tracer) -> None:
    """Wrap the traced public functions of every nlrd module."""
    mod = {name: importlib.import_module(f"nlrd.{name}") for name in (
        "cli", "config", "convolve", "grid", "kernels", "nonlinearity",
        "obstacles", "operators", "solver", "verify")}
    functions = [
        ("convolve", "convolve", _conv_name,
         _conv_counts(mod["convolve"].next_fast_len)),
        ("grid", "holder_quotient", "grid.holder_quotient",
         lambda a, k, out: {"pairs_used": out.pairs_used, "exact": int(out.exact)}),
        ("grid", "field_to_csv", "grid.field_to_csv",
         lambda a, k, out: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
        ("solver", "evolve", "solver.evolve", lambda a, k, out: {"steps": out.steps}),
        ("solver", "maximal_solution", "solver.maximal_solution",
         lambda a, k, out: {"outer_iters": out.iterations}),
        ("solver", "resolvent_solve", "solver.resolvent_solve", None),
        ("solver", "front_profile", "solver.front_profile", None),
        ("operators", "residual", "operators.residual", None),
        ("kernels", "kernel_constants", "kernels.kernel_constants", None),
        ("obstacles", "jmass", "obstacles.jmass", None),
        ("config", "load_config", "config.load_config", None),
        ("verify", "bounds_suite", "verify.bounds_suite", None),
        ("verify", "sliding_radius", "verify.sliding_radius", None),
        ("verify", "comparison_suite", "verify.comparison_suite", None),
    ]
    namespaces = [m for n, m in sys.modules.items() if n == "nlrd" or n.startswith("nlrd.")]
    for owner, attr, name, extra in functions:
        orig = getattr(mod[owner], attr)
        traced = tracer.wrap(name, orig, extra)
        for ns in namespaces:
            for key in [k for k, v in vars(ns).items() if v is orig]:
                setattr(ns, key, traced)
    methods = [
        (mod["nonlinearity"].Bistable, "f", "nonlinearity.f"),
        (mod["nonlinearity"].ExtendedNonlinearity, "f", "nonlinearity.f"),
        (mod["operators"].Problem, "__post_init__", "operators.Problem.build"),
        (mod["verify"].Report, "write_json", "verify.report_write"),
        (mod["verify"].Report, "write_csv", "verify.report_write"),
    ]
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_child.py SPANS.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["nlrd.cli"]
    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

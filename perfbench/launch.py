"""Run one cornerforge CLI command with per-layer spans recorded.

    python perfbench/launch.py TRACE_JSON ARGS...

is `python -m cornerforge.cli ARGS...` with the functions listed in SPANS
wrapped in timing spans first.  Nothing under src/ changes: the wrappers are
installed on the imported modules, the command runs through
`cornerforge.cli.main`, and when it returns the aggregated spans and
counters are written to TRACE_JSON:

    {"exit": code, "spans": {name: [calls, total_s, self_s]}, "counters": {...}}

A span's self time is its duration minus the durations of the spans it
called, so the self times of one command add up to its `cli.main` span.
Functions left unwrapped (count_pattern, GridSet.__contains__, Group
arithmetic) are called too often for a per-call timer; their time lands in
the self time of the wrapped function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "formats", "patterns", "avoiders", "contfrac", "behrend", "mandache", "hypergraph")


def _spectrum_span(args, kwargs):
    from cornerforge.patterns import GridSet

    return "patterns.grid_spectrum" if isinstance(args[0], GridSet) else "patterns.group_spectrum"


def _file_size(fh) -> int:
    try:
        return os.fstat(fh.fileno()).st_size
    except (OSError, ValueError, AttributeError):  # stdout or a closed handle
        return 0


def _position(fh) -> int:
    try:
        return fh.tell()
    except (OSError, ValueError, AttributeError):
        return 0


# Counting hooks run after the wrapped call returns:
# hook(counters, args, kwargs, result).


def _grid_counts(c, args, kwargs, result):
    grid = args[0]
    if not hasattr(grid, "side"):  # a GroupSet: its counts are group_count spans
        return
    pattern = args[1] if len(args) > 1 else kwargs["pattern"]
    c["patterns.grid_counts"] += len(result.counts)
    # computed, not measured: each count ANDs the full N^k-bit mask once per
    # pattern point after the first
    c["patterns.grid_bits_anded"] += len(result.counts) * (len(pattern.points) - 1) * grid.side**grid.dim


def _bytes_read(c, args, kwargs, result):
    c["formats.bytes_read"] += _file_size(args[0])


def _bytes_written(c, args, kwargs, result):
    # the CLI opens a fresh file for every writer call, so the position
    # after the call is the number of bytes it wrote
    c["formats.bytes_written"] += _position(args[0])


def _decided(c, args, kwargs, result):
    c["avoiders.decided_values"] += len(result)


def _alpha_passed(c, args, kwargs, result):
    c["contfrac.verify_alpha_passed"] += bool(result.passed)


def _lambda_size(c, args, kwargs, result):
    c["behrend.lambda_size"] += len(result)


def _pairs(c, args, kwargs, result):
    c["mandache.pairs"] += args[1].order ** 2


# (module, attribute, span name, counting hook); a callable span name picks
# the span per call.  Readers and writers that only delegate to another
# reader or writer carry no byte hook, so bytes are counted once.
SPANS = [
    ("cli", "main", "cli.main", None),
    ("formats", "read_grid_set", "formats.read_grid", _bytes_read),
    ("formats", "read_residues", "formats.read_grid", None),
    ("formats", "write_grid_set", "formats.write_grid", _bytes_written),
    ("formats", "write_residues", "formats.write_grid", None),
    ("formats", "read_group_set", "formats.read_group", _bytes_read),
    ("formats", "write_group_set", "formats.write_group", _bytes_written),
    ("formats", "read_hypergraph", "formats.read_other", _bytes_read),
    ("formats", "read_kernel", "formats.read_other", _bytes_read),
    ("formats", "write_spectrum_csv", "formats.write_other", _bytes_written),
    ("patterns", "spectrum", _spectrum_span, _grid_counts),
    ("patterns", "corner_count_group", "patterns.group_count", None),
    ("patterns", "GridSet.__init__", "patterns.set_build", None),
    ("patterns", "GroupSet.__init__", "patterns.set_build", None),
    ("avoiders", "IntervalSystem.decide_values", "avoiders.decide", _decided),
    ("avoiders", "CornerAvoider.materialize", "avoiders.materialize", None),
    ("avoiders", "FivePointAvoider.materialize", "avoiders.materialize", None),
    ("avoiders", "verify_corner_avoidance", "avoiders.verify", None),
    ("avoiders", "_select_approximant", "avoiders.select", None),
    ("avoiders", "lift_avoider", "avoiders.lift", None),
    ("avoiders", "build_corner_avoider", "avoiders.build", None),
    ("avoiders", "build_five_point_avoider", "avoiders.build", None),
    ("avoiders", "load_avoider", "avoiders.load", None),
    ("contfrac", "build_alpha_hard", "contfrac.build_alpha", None),
    ("contfrac", "verify_alpha", "contfrac.verify_alpha", _alpha_passed),
    ("contfrac", "AlphaSequence.from_json", "contfrac.load", None),
    ("behrend", "behrend_3ap_free", "behrend.construct", _lambda_size),
    ("behrend", "behrend_sum_free", "behrend.construct", _lambda_size),
    ("behrend", "behrend_qc_free", "behrend.construct", _lambda_size),
    ("behrend", "find_relation_witness", "behrend.witness", None),
    ("behrend", "find_qc_witness", "behrend.witness", None),
    ("mandache", "sample_mandache", "mandache.sample", _pairs),
    ("mandache", "mandache_report", "mandache.report", None),
    ("mandache", "kernel_fingerprint", "mandache.fingerprint", None),
    ("hypergraph", "hom_count", "hypergraph.hom_count", None),
    ("hypergraph", "kforce_density", "hypergraph.kforce", None),
    ("hypergraph", "triforce_weighted", "hypergraph.triforce_weighted", None),
]

# called once or more per decided value: counted, not timed
COUNTED = [("contfrac", "AlphaSequence.convergent", "contfrac.convergent_calls")]


class Recorder:
    """Span aggregates and counters for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._child = [0.0]  # time spent in child spans, one entry per open span

    def span(self, fn, name, hook=None):
        child, spans, counters = self._child, self.spans, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = child.pop()
                child[-1] += duration
                agg = spans.setdefault(label, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - inner
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _lookup(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder) -> None:
    """Wrap every function in SPANS and COUNTED wherever cornerforge refers
    to it: module globals, class attributes and default arguments; make set
    iteration eager inside a span."""
    modules = {name: importlib.import_module(f"cornerforge.{name}") for name in LAYERS}
    entries = [(m, path, lambda fn, n=n, h=h: recorder.span(fn, n, h)) for m, path, n, h in SPANS]
    entries += [(m, path, lambda fn, k=k: recorder.counted(fn, k)) for m, path, k in COUNTED]
    replaced = {}
    for module, path, make in entries:
        owner, attr = _lookup(modules[module], path)
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = make(fn)
        if isinstance(owner, type):
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        replaced[fn] = wrapper
    for mod in [importlib.import_module("cornerforge"), *modules.values()]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(mod, attr, replaced[value])
    # defaults bound at definition time (alpha_builder=build_alpha_hard)
    swap = lambda v: replaced.get(v, v) if inspect.isfunction(v) else v
    for fn in replaced:
        if fn.__defaults__:
            fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: swap(v) for k, v in fn.__kwdefaults__.items()}
    # A generator's work happens while its consumer runs, so a span around
    # the generator call would time nothing.  The wrapped __iter__ builds the
    # whole list inside the span; every caller iterates to the end, so the
    # output is unchanged.
    for cls in (modules["patterns"].GridSet, modules["patterns"].GroupSet):
        gen = cls.__iter__
        cls.__iter__ = recorder.span(lambda self, _gen=gen: iter(list(_gen(self))), "patterns.set_iter")


def main(argv):
    trace_path, args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from cornerforge import cli

    code = 1
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse errors and --version exit here
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"exit": code, "spans": recorder.spans, "counters": recorder.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Run one lpsquare CLI subcommand in this process, with spans around the
public functions of every library layer.

    python3 perfbench/tracer.py OUT_DIR -- <lpsquare subcommand and options>

The program is measured from outside: nothing under src/ changes.  `cli`
and several library modules import names directly (`from .grid import
cube_region`), so each wrapper replaces every binding of the original
function in every loaded lpsquare module, not only the one in its defining
module.

A span is (name, start, end, parent span, corpus entry).  Spans stay in
memory and are written at exit to OUT_DIR/spans.npz; their per-name self
times (duration minus the time covered by child spans), call counts and the
work counters below go to OUT_DIR/trace.json.  The corpus entry is the one
whose `CorpusEntry.realize` ran last, -1 before the first.

The process exits with the CLI's exit code.  Run it with --jobs 1: spans
from pool workers would be lost with their processes.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.fft

import lpsquare.cli
from lpsquare import czd, grid, kernels, operators, oscillation, report, weights

# (module, function) pairs that get a span named "<layer>.<function>".
TRACED = (
    (lpsquare.cli, "main"),
    (report, "emit_report"),
    (kernels, "evaluate"),
    (kernels, "certify"),
    (operators, "g_function"),
    (operators, "area_integral"),
    (operators, "g_star"),
    (operators, "convolve"),
    (weights, "a1_constant"),
    (weights, "ap_constant"),
    (weights, "doubling_report"),
    (weights, "power_weight"),
    (oscillation, "blo_constant"),
    (oscillation, "bmo_norm"),
    (oscillation, "blo_p_norm"),
    (grid, "cube_region"),
    (grid, "level_blocks"),
    (grid, "dyadic_address"),
    (czd, "cz_decompose"),
    (czd, "cube_local_constants"),
    (czd, "jn_blo_verify"),
    (czd, "jn_bmo_verify"),
)

# Top-level numpy FFT entry points; numpy's own nested calls bypass these
# attributes, so each user-level transform counts once.
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                 "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _cubes_argument(fn):
    """Extractor for the `cubes` argument of a family scan."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments["cubes"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.entries: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_entry = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.entry = -1
        self.counts: Counter[str] = Counter()

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, kwargs, result) adds counters."""
        nid = self._intern(name)
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_entry.append(self.entry)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def in_layer(self, layer: str) -> bool:
        prefix = layer + "."
        return any(self.names[self.span_name[i]].startswith(prefix)
                   for i in self.stack)

    def install(self) -> None:
        count = self.counts

        def evaluated(args, kwargs, values):
            count["kernels.evaluate_points"] += int(np.shape(values)[0])

        def addressed(args, kwargs, address):
            if address is not None:
                count["grid.dyadic_address_hits"] += 1

        def decomposed(args, kwargs, tree):
            count["czd.tree_nodes"] += len(tree.nodes)
            count["czd.invariant_checks"] += len(tree.checks)

        def emitted(args, kwargs, paths):
            count["report.csv_bytes"] += sum(p.stat().st_size for p in paths
                                             if p.suffix == ".csv")

        def scanned(key, fn):
            cubes = _cubes_argument(fn)

            def after(args, kwargs, result):
                count[key] += len(cubes(args, kwargs))

            return after

        after = {
            "kernels.evaluate": evaluated,
            "grid.dyadic_address": addressed,
            "czd.cz_decompose": decomposed,
            "report.emit_report": emitted,
        }
        for module, scans in ((weights, ("a1_constant", "ap_constant",
                                         "doubling_report")),
                              (oscillation, ("blo_constant", "bmo_norm",
                                             "blo_p_norm"))):
            for fname in scans:
                after[f"{_layer(module)}.{fname}"] = scanned(
                    f"{_layer(module)}.cubes_scanned", getattr(module, fname))

        for module, fname in TRACED:
            name = f"{_layer(module)}.{fname}"
            original = getattr(module, fname)
            wrapper = self.wrap(name, original, after.get(name))
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("lpsquare"):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapper)

        realize = report.CorpusEntry.realize
        wrapped_realize = self.wrap("report.realize", realize)

        def realize_entry(entry, *args, **kwargs):
            if entry.name not in self.entries:
                self.entries.append(entry.name)
            self.entry = self.entries.index(entry.name)
            return wrapped_realize(entry, *args, **kwargs)

        report.CorpusEntry.realize = realize_entry

        for fname in FFT_FUNCTIONS:
            setattr(numpy.fft, fname, self._count_fft(getattr(numpy.fft, fname)))

    def _count_fft(self, fn):
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self.in_layer("operators"):
                self.counts["operators.fft_calls"] += 1
                self.counts["operators.fft_bytes"] += (np.asarray(a).nbytes
                                                       + out.nbytes)
            return out

        return counted

    def write(self, out_dir: Path) -> None:
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.size)
        self_time = np.bincount(names, weights=dur - covered,
                                minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            out_dir / "spans.npz", name=names, parent=parent,
            entry=np.frombuffer(self.span_entry, dtype=np.int32),
            start=start, end=end, names=np.array(self.names),
            entries=np.array(self.entries))
        summary = {
            "spans": int(dur.size),
            "self_s": {n: float(self_time[i]) for i, n in enumerate(self.names)},
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
        }
        (out_dir / "trace.json").write_text(json.dumps(summary, indent=1))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT_DIR -- <lpsquare arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    try:
        return lpsquare.cli.main(argv[2:])
    finally:
        tracer.write(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans around the public entry points of each chainpart layer.

The wrappers live here, outside the program: ``install`` replaces the
functions and methods the CLI reaches with timed versions, ``uninstall`` puts
the originals back.  A span records its name, start, end, parent and op id;
spans are kept in memory in flat arrays and written out when the run ends.
A span's self time is its duration minus the time its child spans cover.

The maps in ``core`` are imported by name into the other modules, so a wrapper
outside them cannot see those calls; their cost stays in the self time of the
callers.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

from chainpart import analytics, cli, codec, core, counting, enumeration, graph23, shortest

LAYERS = ("cli", "core", "counting", "shortest", "enumeration", "codec", "graph23", "analytics")

# (owner, attribute, span name).  Class attributes are patched on the class,
# so recursive calls (ResidueEnumerator.omega) nest as child spans.
TARGETS = (
    (cli, "build_parser", "cli.build_parser"),
    (core, "to_json", "core.to_json"),
    (core, "from_json", "core.from_json"),
    (core, "validate", "core.validate"),
    (counting.CountTable, "w", "counting.w"),
    (counting.CountTable, "scan", "counting.scan"),
    (shortest.ShortestTable, "sigma_or_inf", "shortest.sigma"),
    (shortest.ShortestTable, "witness", "shortest.witness"),
    (shortest.ShortestTable, "scan", "shortest.scan"),
    (shortest.ShortestTable, "stats", "shortest.stats"),
    (enumeration.ResidueEnumerator, "omega", "enumeration.omega"),
    (enumeration, "sample_uniform", "enumeration.sample"),
    (codec, "tree_encode", "codec.tree_encode"),
    (codec, "tree_decode", "codec.tree_decode"),
    (codec, "lattice_encode", "codec.lattice_encode"),
    (codec, "lattice_decode", "codec.lattice_decode"),
    (graph23, "neighbors", "graph23.neighbors"),
    (graph23, "build_graph", "graph23.build_graph"),
    (graph23, "random_walk", "graph23.random_walk"),
    (analytics, "max_count_jumps", "analytics.max_count_jumps"),
    (analytics, "check_local_monotonicity", "analytics.check_local_monotonicity"),
    (analytics, "classify_small_counts", "analytics.classify_small_counts"),
    (analytics, "check_growth_bound", "analytics.check_growth_bound"),
    (analytics, "estimate_growth_constant", "analytics.estimate_growth_constant"),
    (analytics, "solve_exponents", "analytics.solve_exponents"),
    (analytics, "constant_upper_bound", "analytics.constant_upper_bound"),
)
ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span store with online self-time bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.failed = bytearray()
        self._open: list[list] = []  # [span index, seconds covered by children]
        self.op_id = -1
        self.peaks: dict[str, int] = {}
        self.totals: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.op.append(self.op_id)
        self.parent.append(self._open[-1][0] if self._open else -1)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self.failed.append(0)
        self._open.append([index, 0.0])
        self.start.append(time.perf_counter())
        return index

    def close(self, failed: bool = False) -> int:
        now = time.perf_counter()
        index, covered = self._open.pop()
        duration = now - self.start[index]
        self.end[index] = now
        self.self_time[index] = duration - covered
        if failed:
            self.failed[index] = 1
        if self._open:
            self._open[-1][1] += duration
        return index

    def parent_name(self, index: int) -> str:
        parent = self.parent[index]
        return self.names[self.name[parent]] if parent >= 0 else ""

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def add(self, key: str, value: int) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def run_op(self, op_id: int, main: Callable[[list[str]], int], argv: list[str]) -> int:
        """Call ``main`` under the root span of op ``op_id``."""
        self.op_id = op_id
        root = self.name_id(ROOT_SPAN)
        self.open(root)
        failed = True
        try:
            rc = main(argv)
            failed = rc != 0
            return rc
        finally:
            # A RecursionError can leave spans that never closed; close them as failed.
            while len(self._open) > 1:
                self.close(failed=True)
            self.close(failed=failed)

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name: str) -> Callable:
        name_id = self.name_id(name)
        after = _AFTER.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.open(name_id)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.close(failed=True)
                raise
            index = self.close()
            if after is not None:
                after(self, index, args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as columns of one gzipped JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "op": self.op.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "failed": list(self.failed),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))

    def self_by_name(self, op_id: Optional[int] = None) -> dict[str, list]:
        """{span name: [calls, self seconds, errors]}, optionally for one op."""
        per_id = [[0, 0.0, 0] for _ in self.names]
        for name, op, own, failed in zip(self.name, self.op, self.self_time, self.failed):
            if op_id is None or op == op_id:
                cell = per_id[name]
                cell[0] += 1
                cell[1] += own
                cell[2] += failed
        return {self.names[i]: cell for i, cell in enumerate(per_id)}


def _after_count(tracer: Tracer, index: int, args: tuple, result) -> None:
    tracer.peak("counting.memo_peak", len(args[0].table))


def _after_scan(tracer: Tracer, index: int, args: tuple, result) -> None:
    tracer.add("counting.scan.u", len(result))


def _after_sigma(tracer: Tracer, index: int, args: tuple, result) -> None:
    tracer.peak("shortest.memo_peak", len(args[0].table))


def _after_omega(tracer: Tracer, index: int, args: tuple, result) -> None:
    tracer.add("omega.members", len(result))
    if tracer.parent_name(index) != "enumeration.omega":
        tracer.add("omega.members_top", len(result))


def _after_codec(tracer: Tracer, index: int, args: tuple, result) -> None:
    if not tracer.parent_name(index).startswith("codec."):
        tracer.add("codec.words", 1)


_AFTER = {
    "counting.w": _after_count,
    "counting.scan": _after_scan,
    "shortest.sigma": _after_sigma,
    "shortest.witness": _after_sigma,
    "enumeration.omega": _after_omega,
    "codec.tree_encode": _after_codec,
    "codec.tree_decode": _after_codec,
    "codec.lattice_encode": _after_codec,
    "codec.lattice_decode": _after_codec,
}


def layer_metrics(tracer: Tracer, ops: int, out_bytes: int, overhead: float) -> dict:
    """Per-layer metrics over ``ops`` traced ops: {name: (value, unit)}.

    Calls, self times, errors and output bytes are per op, so runs that fit
    different numbers of ops in their time stay comparable.
    """
    spans = tracer.self_by_name()
    zero = [0, 0.0, 0]

    def cell(*names: str) -> list:
        cells = [spans.get(n, zero) for n in names]
        return [sum(c[i] for c in cells) for i in range(3)]

    def layer_names(layer: str) -> list[str]:
        if layer == "cli":
            return [ROOT_SPAN]
        return [n for n in tracer.names if n.split(".")[0] == layer]

    n = max(ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls, own, errors = cell(*layer_names(layer))
        out[f"{layer}.calls"] = (calls / n, "calls/op")
        out[f"{layer}.self_s"] = (own / n, "s/op")
        out[f"{layer}.errors"] = (errors / n, "errors/op")

    def self_s(*names: str) -> tuple[float, str]:
        return (cell(*names)[1] / n, "s/op")

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    totals = tracer.totals
    scan = cell("counting.scan")
    sample = cell("enumeration.sample")
    codec_self = cell(*layer_names("codec"))[1]
    out.update({
        "counting.scan.self_s": self_s("counting.scan"),
        "counting.scan.ns_per_u": (ratio(scan[1], totals.get("counting.scan.u", 0), 1e9), "ns/u"),
        "counting.w.self_s": self_s("counting.w"),
        "counting.memo_peak": (tracer.peaks.get("counting.memo_peak", 0), "count"),
        "shortest.scan.self_s": self_s("shortest.scan", "shortest.stats"),
        "shortest.sigma.self_s": self_s("shortest.sigma"),
        "shortest.witness.self_s": self_s("shortest.witness"),
        "shortest.memo_peak": (tracer.peaks.get("shortest.memo_peak", 0), "count"),
        "enumeration.omega.self_s": self_s("enumeration.omega"),
        "enumeration.omega.calls": (cell("enumeration.omega")[0] / n, "calls/op"),
        "enumeration.omega.useful_ratio": (
            ratio(totals.get("omega.members_top", 0), totals.get("omega.members", 0)), "1"),
        "enumeration.sample.self_s": self_s("enumeration.sample"),
        "enumeration.sample.us_per_draw": (ratio(sample[1], sample[0], 1e6), "us/draw"),
        "codec.tree_encode.self_s": self_s("codec.tree_encode"),
        "codec.tree_decode.self_s": self_s("codec.tree_decode"),
        "codec.lattice.self_s": self_s("codec.lattice_encode", "codec.lattice_decode"),
        "codec.us_per_word": (ratio(codec_self, totals.get("codec.words", 0), 1e6), "us/word"),
        "graph23.neighbors.self_s": self_s("graph23.neighbors"),
        "graph23.neighbors.calls": (cell("graph23.neighbors")[0] / n, "calls/op"),
        "graph23.build_graph.self_s": self_s("graph23.build_graph"),
        "graph23.random_walk.self_s": self_s("graph23.random_walk"),
        "core.serialize.self_s": self_s("core.to_json", "core.from_json", "core.validate"),
        "cli.build_parser.self_s": self_s("cli.build_parser"),
        "cli.out_bytes": (out_bytes / n, "B/op"),
        "trace.overhead_frac": (overhead, "1"),
    })
    return out

"""Spans recorded from outside knotpair, for the traced per-layer breakdown.

``Tracer.install`` wraps the public functions of each layer in every
``knotpair`` module namespace that binds them (``pd_from_rep`` is imported by
name into ``census``, ``classify`` and ``cli``, for example), plus
``LaurentPoly.__mul__`` and ``__add__``. Each call records one span: name,
start, end, parent span and the index of the CLI command it ran under. Spans
are kept in flat arrays in memory and written out by ``dump`` when the run
ends. ``spanning_trees`` is a generator, so its trees are counted, not
timed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from array import array

# (span name, module, attribute); several functions may share a span name.
TIMED = (
    ("laurent.mul", "knotpair.laurent", "LaurentPoly.__mul__"),
    ("laurent.add", "knotpair.laurent", "LaurentPoly.__add__"),
    ("reps.canonicalize", "knotpair.reps", "canonicalize"),
    ("closedform.bracket", "knotpair.closedform", "bracket_girth3"),
    ("closedform.bracket", "knotpair.closedform", "bracket_double_twist"),
    ("closedform.sym_s", "knotpair.closedform", "sym_s"),
    ("closedform.conway", "knotpair.closedform", "conway_girth3_even"),
    ("closedform.conway", "knotpair.closedform", "conway_double_twist"),
    ("closedform.conway", "knotpair.closedform", "conway_single_twist"),
    ("diagram.pd_from_rep", "knotpair.diagram", "pd_from_rep"),
    ("diagram.orient", "knotpair.diagram", "orient"),
    ("diagram.tait_graph", "knotpair.diagram", "tait_graph"),
    ("diagram.checkerboard", "knotpair.diagram", "checkerboard"),
    ("oracle.bracket_state_sum", "knotpair.oracle", "bracket_state_sum"),
    ("oracle.conway_fox", "knotpair.oracle", "conway_fox"),
    ("girth.diagram_girth", "knotpair.girth", "diagram_girth"),
    ("girth.decompose", "knotpair.girth", "decompose"),
    ("girth.tree_contour", "knotpair.girth", "tree_contour"),
    ("classify.compare", "knotpair.classify", "compare"),
    ("classify.rep_invariants", "knotpair.classify", "rep_invariants"),
    ("census.census_enumerate", "knotpair.census", "census_enumerate"),
    ("census.dedup_census", "knotpair.census", "dedup_census"),
    ("census.build_record", "knotpair.census", "build_record"),
    ("census.census_csv", "knotpair.census", "census_csv"),
    ("cli.main", "knotpair.cli", "main"),
)
COUNTED = (("girth.spanning_trees", "knotpair.girth", "spanning_trees"),)
FILES = ("name", "start", "end", "parent", "command")
TYPECODES = ("H", "d", "d", "i", "i")


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


def edge_subsets(tait) -> int:
    """C(E, V-1): the edge subsets a subset-filtering tree search tests."""
    edges = sum(1 for e in tait.edges if e.v1 != e.v2)
    return math.comb(edges, max(tait.n_vertices - 1, 0))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_a, self.start_a, self.end_a, self.parent_a, self.command_a = (
            array(t) for t in TYPECODES
        )
        self.stack = [-1]
        self.command = -1
        self.counts: dict[str, int] = {}
        self.template_reps: set = set()
        self.missing: list[str] = []
        # (start, end) of each run of the speed probe (see speed.py) inside
        # a command: not program time, so self times leave it out
        self.probes: list[tuple[float, float]] = []

    def _count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _observe(self, name: str, args: tuple) -> None:
        """Work counts read off a call's arguments."""
        if name == "laurent.mul":
            self._count("laurent.mul.term_products", _terms(args[0]) * _terms(args[1]))
        elif name == "oracle.bracket_state_sum":
            self._count("oracle.bracket_state_sum.states", 2 ** args[0].n())
        elif name == "oracle.conway_fox":
            self._count("oracle.conway_fox.crossings", args[0].n())
        elif name == "diagram.pd_from_rep":
            self.template_reps.add((self.command, args[0]))
        elif name == "girth.spanning_trees":
            self._count("girth.spanning_trees.subsets", edge_subsets(args[0]))

    def _timed(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, commands = (
            self.name_a, self.start_a, self.end_a, self.parent_a, self.command_a
        )
        stack, clock, observe = self.stack, time.perf_counter, self._observe
        unresolved = name == "classify.compare"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            observe(name, args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            commands.append(self.command)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if unresolved and result.tag == "Unresolved":
                self._count("classify.compare.unresolved")
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._observe(name, args)
            self._count(f"{name}.calls")
            for item in fn(*args, **kwargs):
                self._count(f"{name}.trees")
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a knotpair module or class binds it."""
        for targets, wrap in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, module, attr in targets:
                owner = sys.modules.get(module)
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                original = getattr(owner, path[-1], None)
                if original is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                wrapper = wrap(name, original)
                if len(path) > 1:  # a method: rebind it and its aliases on the class
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, key, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "knotpair" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self, out_dir: str, tag: str) -> None:
        for field, arr in zip(FILES, (self.name_a, self.start_a, self.end_a, self.parent_a, self.command_a)):
            with open(os.path.join(out_dir, f"{tag}.{field}"), "wb") as f:
                arr.tofile(f)
        counts = dict(self.counts, **{"diagram.distinct_template_reps": len(self.template_reps)})
        with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
            json.dump({"names": self.names, "counts": counts, "missing": self.missing,
                       "spans": len(self.start_a), "probes": self.probes}, f)


def load(out_dir: str, tag: str) -> tuple[dict, list[array]]:
    with open(os.path.join(out_dir, f"{tag}.json")) as f:
        meta = json.load(f)
    arrays = []
    for field, code in zip(FILES, TYPECODES):
        arr = array(code)
        with open(os.path.join(out_dir, f"{tag}.{field}"), "rb") as f:
            arr.frombytes(f.read())
        arrays.append(arr)
    return meta, arrays


def self_times(meta: dict, arrays: list[array]) -> tuple[dict[str, int], dict[str, float], float]:
    """Calls and self time per span name, and the summed root-span duration,
    all without the speed probe's runs.

    A span's self time is its duration minus the durations of its direct
    children and of the probe runs directly inside it; children nest inside
    their parent because one thread records them through a stack. A probe
    run belongs to the innermost span whose recorded interval holds it.
    """
    names, starts, ends, parents, _ = arrays
    child = [0.0] * len(starts)
    root_total = 0.0
    for i, parent in enumerate(parents):
        duration = ends[i] - starts[i]
        if parent >= 0:
            child[parent] += duration
        else:
            root_total += duration
    # Spans are recorded in the order they start: sweep them and the probe
    # runs together, keeping the stack of spans open at each probe run.
    probes = sorted(meta.get("probes", []))
    open_spans: list[int] = []
    k = 0
    for i in range(len(starts) + 1):
        start = starts[i] if i < len(starts) else math.inf
        while k < len(probes) and probes[k][0] < start:
            a, b = probes[k]
            while open_spans and ends[open_spans[-1]] <= a:
                open_spans.pop()
            if open_spans:
                child[open_spans[-1]] += b - a
                root_total -= b - a
            k += 1
        if i < len(starts):
            while open_spans and ends[open_spans[-1]] <= start:
                open_spans.pop()
            open_spans.append(i)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, nid in enumerate(names):
        name = meta["names"][nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (ends[i] - starts[i]) - child[i]
    return calls, self_s, root_total

"""Spans recorded around calls into ``steerkit``'s public functions, from outside ``src/``.

``Recorder.install`` wraps the functions named in ``GROUPS`` and replaces every
binding of each one in every loaded ``steerkit`` module, since modules re-bind
names with ``from .x import f``.  A span holds its function, start, end, parent
span and thread.  Spans opened in a pool worker thread take the enclosing
``parallel_map`` span as parent.  Spans stay in memory until ``dump``.

``self_times``, ``integrity`` and ``summarize`` turn the spans of one
operation into per-layer numbers in the parent process.  A span's self time is the wall time during which it was open and had no open
child.  Where worker threads run spans concurrently, each such interval is
shared equally among the spans that are open without an open child, so the
self times of one operation never sum to more than its wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

# span group -> module -> functions
GROUPS = {
    "cli": {"cli": ["main"]},
    "experiments": {
        "experiments": [
            "ghz_rows", "ghz_noise_rows", "split_dicke_rows", "split_dicke_partition_rows", "cat_rows",
            "quantify_rows", "multigen_rows", "ghz_assemblage", "ghz_noise_assemblage",
            "split_dicke_assemblage", "cat_assemblage", "bell_assemblage", "maximally_entangled_assemblage",
            "split_dicke_partition_quantities", "estimate_run",
        ]
    },
    "experiments.parallel_map": {"experiments": ["parallel_map"]},
    "states.wigner_rotation_matrix": {"states": ["wigner_rotation_matrix"]},
    "states.construct": {
        "states": ["ghz_state", "ghz_white_noise", "collective_jz", "spin_ops", "split_dicke_fixed", "hybrid_cat", "fock_space"]
    },
    "metrology.make_povm": {"metrology": ["make_povm", "povm_from_basis"]},
    "metrology.qfi": {"metrology": ["qfi"]},
    "metrology.variance": {"metrology": ["variance"]},
    "linalg.validate": {"linalg": ["require_hermitian", "require_density_matrix", "require_state_vector"]},
    "linalg.hermitian_eig": {"linalg": ["hermitian_eig"]},
    "assemblage.construct": {"assemblage": ["assemblage_from_state", "assemblage_from_pure_state", "make_assemblage"]},
    "assemblage.evaluate": {
        "assemblage": [
            "conditional_qfi", "conditional_variance", "setting_average_qfi", "setting_average_variance",
            "steering_witness", "reid_witness",
        ]
    },
    "pure.s_max_lower_bound": {"pure": ["s_max_lower_bound", "assemblage_delta"]},
    "pure.optimal_povm": {"pure": ["optimal_povm_qfi", "optimal_povm_var", "schmidt"]},
    "sampling": {"sampling": ["moment_estimator_validation", "epr_product_check"]},
    "serialize.load": {"serialize": ["load_document", "load_state", "assemblage_from_json", "load_observable"]},
    "serialize.dump": {"serialize": ["witness_report_to_json", "sample_run_to_json"]},
}

POOL = "experiments.parallel_map"
ROOT = "bench.op"  # the whole operation, recorded by the child runner

# counter -> (module, function, amount counted per call)
COUNTERS = {
    "states.wigner_overlap.calls": [("states", "wigner_overlap", lambda args, kw: 1)],
    "metrology.make_povm.effects": [("metrology", "make_povm", lambda args, kw: len(args[0] if args else kw["effects"]))],
    "cli.rows_written": [
        ("cli", "write_csv", lambda args, kw: len(args[1])),
        ("cli", "write_json_table", lambda args, kw: len(args[1])),
        ("cli", "write_json_doc", lambda args, kw: 1),
    ],
}


class Recorder:
    """In-memory span store for one operation (one process)."""

    def __init__(self):
        self.names: list[str] = []  # "module.function" per name id
        self.groups: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("q")
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_span = -1

    def span(self, fn, name: str, group: str):
        """Wrap ``fn`` so that every call records one span."""
        nid = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        is_pool = group == POOL
        clock, local, lock, get_tid = time.perf_counter, self._local, self._lock, threading.get_native_id
        name_id, start, end, parent, thread = self.name_id, self.start, self.end, self.parent, self.thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else self._pool_span)
                thread.append(get_tid())
                end.append(0.0)
                start.append(clock())
            stack.append(idx)
            if is_pool:
                outer, self._pool_span = self._pool_span, idx
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[group] += 1
                raise
            finally:
                if is_pool:
                    self._pool_span = outer
                end[idx] = clock()
                stack.pop()

        return wrapper

    def counter(self, fn, key: str, amount):
        """Wrap ``fn`` so that every call adds ``amount(args, kwargs)`` to a count."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the target functions and rebind them in every loaded steerkit module."""
        import steerkit.cli  # noqa: F401  (loads every steerkit module)

        def module(short):
            return sys.modules[f"steerkit.{short}"]

        self._rotation = module("states").wigner_rotation_matrix
        replace = {}  # id(original) -> (original, wrapper)
        for key, targets in COUNTERS.items():
            for mod, fn_name, amount in targets:
                fn = getattr(module(mod), fn_name)
                replace[id(fn)] = (fn, self.counter(fn, key, amount))
        for group, by_module in GROUPS.items():
            for mod, fn_names in by_module.items():
                for fn_name in fn_names:
                    fn = getattr(module(mod), fn_name)
                    inner = replace.get(id(fn), (fn, fn))[1]
                    replace[id(fn)] = (fn, self.span(inner, f"{mod}.{fn_name}", group))
        for name, mod in list(sys.modules.items()):
            if name != "steerkit" and not name.startswith("steerkit."):
                continue
            for attr, value in list(vars(mod).items()):
                original, wrapper = replace.get(id(value), (None, None))
                if original is value:
                    setattr(mod, attr, wrapper)

    def run(self, fn, *args):
        """Call ``fn`` inside the root span of the operation and return its result."""
        return self.span(fn, ROOT, ROOT)(*args)

    def dump(self, path: str) -> None:
        meta = {
            "names": self.names,
            "groups": self.groups,
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "rotation_cache_hits": self._rotation.cache_info().hits,
        }
        with open(path, "wb") as f:
            np.savez(
                f,
                meta=np.array(json.dumps(meta)),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                thread=np.frombuffer(self.thread, dtype=np.int64),
            )


# ---------------------------------------------------------------------------
# Parent side: one operation's spans -> per-layer numbers
# ---------------------------------------------------------------------------

def load(path) -> dict:
    with np.load(path) as data:
        trace = {k: data[k] for k in data.files if k != "meta"}
        trace["meta"] = json.loads(str(data["meta"]))
    return trace


def self_times_nested(start, end, parent) -> np.ndarray:
    """Self time when no two children of a span overlap (one thread)."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def self_times_shared(start, end, parent) -> np.ndarray:
    """Self time with each instant shared among the open spans that have no open child."""
    n = len(start)
    times = np.concatenate([start, end])
    opening = np.concatenate([np.ones(n, dtype=bool), np.zeros(n, dtype=bool)])
    order = np.lexsort((opening, times))  # at equal times, close before opening
    self_t = [0.0] * n
    open_children = [0] * n
    is_open = [False] * n
    leaves: set[int] = set()
    prev = None
    for k in order.tolist():
        t = float(times[k])
        if leaves:
            share = (t - prev) / len(leaves)
            for j in leaves:
                self_t[j] += share
        prev = t
        i = k % n
        p = int(parent[i])
        if opening[k]:
            is_open[i] = True
            leaves.add(i)
            if p >= 0:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return np.array(self_t)


def self_times(trace: dict) -> np.ndarray:
    args = (trace["start"], trace["end"], trace["parent"])
    if len(np.unique(trace["thread"])) <= 1:
        return self_times_nested(*args)
    return self_times_shared(*args)


def integrity(trace: dict, self_t: np.ndarray) -> list[str]:
    """Structural checks of one operation's spans; an empty list means sound."""
    meta, start, end, parent, thread = trace["meta"], trace["start"], trace["end"], trace["parent"], trace["thread"]
    groups = np.array(meta["groups"])[trace["name_id"]]
    problems = []
    roots = np.flatnonzero(parent < 0)
    if len(roots) != 1 or groups[roots[0]] != ROOT:
        return [f"expected one root span, found {len(roots)}"]
    wall = end[roots[0]] - start[roots[0]]
    has_parent = parent >= 0
    p = parent[has_parent]
    if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]) or np.any(end < start):
        problems.append("a span lies outside its parent")
    if self_t.sum() > wall + 1e-9:
        problems.append(f"self times sum to {self_t.sum()!r} s, more than the traced wall {wall!r} s")
    foreign = has_parent.copy()
    foreign[has_parent] = thread[has_parent] != thread[p]
    if np.any(groups[parent[foreign]] != POOL):
        problems.append("a span in a worker thread is not parented to its parallel_map span")
    return problems


def summarize(trace: dict, self_t: np.ndarray) -> dict:
    """Per-group self time, calls and errors, plus the layer-specific counts."""
    meta = trace["meta"]
    group_of = np.array(meta["groups"])[trace["name_id"]]
    names = np.array(meta["names"])[trace["name_id"]]
    out = Counter()
    for group in GROUPS:
        mine = group_of == group
        out[f"{group}.self_s"] = float(self_t[mine].sum())
        out[f"{group}.calls"] = int(mine.sum())
        out[f"{group}.errors"] = int(meta["errors"].get(group, 0))
    pools = group_of == POOL
    dur = trace["end"] - trace["start"]
    out[f"{POOL}.wall_s"] = float(dur[pools].sum())
    under_pool = (trace["parent"] >= 0) & pools[np.maximum(trace["parent"], 0)]
    out[f"{POOL}.busy_s"] = float(dur[under_pool].sum())
    out["pure.objective_evals"] = int((names == "pure.assemblage_delta").sum())
    out["states.wigner_rotation_matrix.cache_hits"] = int(meta["rotation_cache_hits"])
    for key, value in meta["counts"].items():
        out[key] += value
    out["trace.spans"] = len(dur)
    return out

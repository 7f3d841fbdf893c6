"""Spans around the package's public functions, installed from outside.

Each traced function is replaced, at every module attribute and module-level
tuple that binds it, by a wrapper that records a span (request, id, parent,
name, start, end) and charges the function its self time: its duration
minus the durations of the traced calls nested inside it.  Spans stay in
memory and are written once, after the run.  `uninstall` puts the original
objects back, so untraced requests run the package exactly as shipped.
"""

import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function) pairs; "DensityOperator" times its validating __post_init__
TRACED = (
    ("cli", "main"), ("cli", "parse_state_arg"), ("cli", "parse_filter_arg"),
    ("formats", "pairs_to_matrix"), ("formats", "fmt_num"),
    ("catalog", "rho_xt"), ("catalog", "rho_upb"), ("catalog", "bell_state"),
    ("catalog", "choi_example_filter"), ("catalog", "upb_rotation_filter"),
    ("catalog", "gisin_filter"),
    ("states", "DensityOperator"), ("states", "is_ppt"),
    ("states", "schmidt_rank"),
    ("filters", "make_filter"), ("filters", "apply_filter"),
    ("filters", "filtered_pure"),
    ("witness", "apply_witness"), ("witness", "detect"),
    ("linalg", "eigh"), ("linalg", "svd"),
    ("measure", "protocol_analytic"), ("measure", "postselect_diag"),
    ("mcsim", "run_protocol"),
    ("kernels", "accept_count"),
    ("acceptance", "check_choi_window"), ("acceptance", "check_upb"),
    ("acceptance", "check_schmidt_invariance"),
    ("acceptance", "check_ppt_invariance"),
    ("acceptance", "check_measurement_equivalence"),
    ("acceptance", "check_projector_algebra"),
    ("acceptance", "check_monte_carlo"),
    ("acceptance", "check_positive_not_cp"),
)

LOTTERY = "kernels.accept_count"
# derived lottery metrics and their units
LOTTERY_DERIVED = (
    ("ns_per_shot", "ns"),
    ("accept_ratio", "ratio"),
    ("bytes_per_shot_computed", "B/shot"),
    ("max_block_mb", "MB"),
)
SPAN_CAP = 2_000_000
PACKAGE = "boundfilter"


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fn in TRACED:
        out.append((f"{mod}.{fn}.calls", "count/req"))
        out.append((f"{mod}.{fn}.self_ms", "ms/req"))
    out += [(f"{LOTTERY}.{name}", unit) for name, unit in LOTTERY_DERIVED]
    return out


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0])  # name -> [calls, self ns]
        self.counters = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.request = 0
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stats = self.stats[name]
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.request, sid, parent, name, start, end))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_lottery(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, accepted):
            self.counters["shots"] += sig.bind(*args, **kwargs).arguments["shots"]
            self.counters["accepted"] += accepted

        return after

    def _count_block(self, fn):
        # not a span: the uniform block is the numpy lottery's working array,
        # and its size is what chunking would change
        def counted(*args, **kwargs):
            block = fn(*args, **kwargs)
            self.counters["block_bytes"] += block.nbytes
            self.counters["max_block_bytes"] = max(
                self.counters["max_block_bytes"], block.nbytes
            )
            return block

        return counted

    # -- install / uninstall ------------------------------------------------

    def install(self):
        mods = {
            name: sys.modules[f"{PACKAGE}.{name}"]
            for name in {m for m, _ in TRACED}
        }
        swap = {}
        for mod, fn in TRACED:
            name = f"{mod}.{fn}"
            if fn == "DensityOperator":
                cls = getattr(mods[mod], fn)
                orig = cls.__dict__["__post_init__"]
                self._set(cls, "__post_init__", self._wrap(name, orig))
                continue
            orig = getattr(mods[mod], fn)
            after = self._count_lottery(orig) if name == LOTTERY else None
            swap[id(orig)] = (orig, self._wrap(name, orig, after))
        block = getattr(mods["kernels"], "uniform_block", None)
        if block is not None:
            swap[id(block)] = (block, self._count_block(block))
        self._rebind(swap)

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _rebind(self, swap):
        """Replace each original at every binding in the package's modules,
        including module-level tuples such as a table of checks."""

        def sub(v):
            hit = swap.get(id(v))
            return hit[1] if hit is not None and hit[0] is v else v

        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, tuple):
                    new = tuple(sub(v) for v in value)
                    if any(a is not b for a, b in zip(new, value)):
                        self._set(module, attr, new)
                elif sub(value) is not value:
                    self._set(module, attr, sub(value))

    def uninstall(self):
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self, requests):
        """Per-request averages of every per-layer metric."""
        n = max(requests, 1)
        out = {}
        for mod, fn in TRACED:
            calls, self_ns = self.stats[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.calls"] = calls / n
            out[f"{mod}.{fn}.self_ms"] = self_ns / 1e6 / n
        shots = self.counters["shots"]
        lottery_ns = self.stats[LOTTERY][1]
        per_shot = (lambda v: v / shots) if shots else (lambda v: 0.0)
        out[f"{LOTTERY}.ns_per_shot"] = per_shot(lottery_ns)
        out[f"{LOTTERY}.accept_ratio"] = per_shot(self.counters["accepted"])
        out[f"{LOTTERY}.bytes_per_shot_computed"] = per_shot(
            self.counters["block_bytes"]
        )
        out[f"{LOTTERY}.max_block_mb"] = self.counters["max_block_bytes"] / 2**20
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for req, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "request": req, "id": sid, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")

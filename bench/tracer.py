"""Spans around the public functions of the dualdet layer modules.

The package imports names by value (``sweep.evaluate`` is
``scenario.evaluate``; ``bb84`` and ``decoy`` hold their own
``binary_entropy``; ``LinkSpec.g_ch`` reads ``core.channel_transmittance``),
so a wrapper is installed at *every* module binding of each function, and
on the public methods of the modules' classes. ``restore`` puts the
originals back. Untraced runs never construct a Tracer.

A span is ``[name, start_ns, end_ns, parent_index, op, error, extra]``.
Spans stay in memory; ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("core", "bb84", "decoy", "gmcs", "scenario", "sweep", "presets", "practical", "cli")

NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)

EVALUATE = "scenario.evaluate"
BISECT = "core.bisect_sign_change"
CROSSOVER = "sweep.crossover_distance"
MAXDIST = "sweep.max_secure_distance"
KERNEL_MODULES = ("bb84", "decoy", "gmcs")


def _bisect_hook(bound):
    """Count the bracketed function's evaluations and keep the bracket."""
    f = bound.arguments["f"]
    calls = [0]

    def counted(x):
        calls[0] += 1
        return f(x)

    bound.arguments["f"] = counted
    lo, hi = bound.arguments["lo"], bound.arguments["hi"]
    return lambda: (calls[0], lo, hi)


def _csv_hook(bound):
    out = bound.arguments["out"]
    start = out.tell()
    return lambda: out.tell() - start


def _search_hook(bound):
    """Scenarios evaluated per grid point, and the grid step."""
    others = bound.arguments.get("scenario_b", ())
    per_point = 1 + (len(others) if isinstance(others, (list, tuple)) else 1)
    return lambda: (per_point, bound.arguments["coarse_step"])


#: Functions whose spans carry extra data; each hook may replace arguments.
HOOKS = {
    BISECT: _bisect_hook,
    "sweep.write_curves_csv": _csv_hook,
    CROSSOVER: _search_hook,
    MAXDIST: _search_hook,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        #: Spans are recorded only while active: during an op, not its check.
        self.active = False
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None, None]
            finish = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                finish = hook(bound)
                args, kwargs = bound.args, bound.kwargs
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if finish is not None:
                    span[EXTRA] = finish()

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"dualdet.{short}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, method in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(method):
                            self._patch(obj, attr, self._wrap(f"{short}.{attr}", method))
        for modname, module in list(sys.modules.items()):
            if modname == "dualdet" or modname.startswith("dualdet."):
                for name, obj in list(vars(module).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(module, name, hit[1])

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def take(self) -> list[list]:
        spans = self.spans[:]
        self.spans.clear()
        return spans


def write_spans(path, spans, header: str) -> None:
    """One line per span: name, start_ns, end_ns, parent, op (gzip text)."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(header + "\n")
        fh.write("name,start_ns,end_ns,parent,op\n")
        for s in spans:
            fh.write(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[OP]}\n")


def summarize(spans: list[list], n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced block: (counts, times).

    Counts repeat exactly for the same ops; times do not. Self time is a
    span's duration minus the durations of its direct child spans.
    """
    n = len(spans)
    child_ns = [0] * n
    kernel_child_ns = [0] * n
    in_search = [-1] * n   # index of the enclosing crossover/maxdist span
    in_bisect = [False] * n
    calls = defaultdict(int)
    self_ns_by_module = defaultdict(int)
    search_evals = defaultdict(lambda: [0, 0])  # search span -> [grid, bisection] evaluate calls
    rejected = 0
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        dur = s[END] - s[START]
        calls[name] += 1
        if parent >= 0:
            child_ns[parent] += dur
            if name.split(".", 1)[0] in KERNEL_MODULES:
                kernel_child_ns[parent] += dur
            in_search[i], in_bisect[i] = in_search[parent], in_bisect[parent]
        if name in (CROSSOVER, MAXDIST):
            in_search[i] = i
        elif name == BISECT:
            in_bisect[i] = True
        elif name == EVALUATE and in_search[i] >= 0:
            search_evals[in_search[i]][in_bisect[i]] += 1
        if name == "scenario.scenario_from_dict" and s[ERROR] == "ConfigError":
            rejected += 1
    evaluate_self_ns = 0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        self_ns_by_module[s[NAME].split(".", 1)[0]] += dur - child_ns[i]
        if s[NAME] == EVALUATE:
            evaluate_self_ns += dur - kernel_child_ns[i]

    def per_op(count):
        return count / n_ops

    def mean(total, count):
        return total / count if count else 0.0

    counts = {
        "trace.spans_per_op": per_op(n),
        "scenario.rejected_per_op": per_op(rejected),
    }
    for name in ("core.binary_entropy", "core.channel_transmittance", BISECT, EVALUATE,
                 "scenario.validate_scenario", "scenario.at_length", "scenario.scenario_from_dict",
                 "decoy.optimal_mu"):
        counts[f"{name}.calls_per_op"] = per_op(calls[name])
    bisect_evals = sum(s[EXTRA][0] for s in spans if s[NAME] == BISECT)
    counts[f"{BISECT}.evals_per_call"] = mean(bisect_evals, calls[BISECT])
    for search in (CROSSOVER, MAXDIST):
        idx = [i for i in range(n) if spans[i][NAME] == search]
        grid = sum(search_evals[i][0] for i in idx)
        bis = sum(search_evals[i][1] for i in idx)
        counts[f"{search}.evals_per_call"] = mean(grid + bis, len(idx))
        counts[f"{search}.grid_evals_per_call"] = mean(grid, len(idx))
        counts[f"{search}.bisect_evals_per_call"] = mean(bis, len(idx))
    counts[f"{CROSSOVER}.grid_useful_ratio"] = _grid_useful_ratio(spans, search_evals)
    csv_bytes = [s[EXTRA] for s in spans if s[NAME] == "sweep.write_curves_csv"]
    counts["sweep.write_curves_csv.bytes_per_call"] = mean(sum(csv_bytes), len(csv_bytes))

    times = {f"{m}.self_ms_per_op": self_ns_by_module[m] / 1e6 / n_ops for m in LAYER_MODULES if m != "practical"}
    times["practical.self_us_per_op"] = self_ns_by_module["practical"] / 1e3 / n_ops
    times[f"{EVALUATE}.self_ns_per_call"] = mean(evaluate_self_ns, calls[EVALUATE])
    return counts, times


def _grid_useful_ratio(spans, search_evals) -> float:
    """Grid points up to the bracketing cell / grid points evaluated, over all
    crossover searches. Without a bracket (no crossing) every point was needed."""
    useful = evaluated = 0.0
    brackets = {}
    for s in spans:
        if s[NAME] == BISECT and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == CROSSOVER:
            brackets[s[PARENT]] = s[EXTRA][2]
    for i, s in enumerate(spans):
        if s[NAME] != CROSSOVER:
            continue
        per_point, step = s[EXTRA]
        points = search_evals[i][0] / per_point
        evaluated += points
        useful += round(brackets[i] / step) + 1 if i in brackets else points
    return useful / evaluated if evaluated else 0.0

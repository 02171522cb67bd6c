"""In-memory spans around the library's layer boundaries.

The tracer rebinds each traced function in its defining module and in every
`omegalab` module that imported it by name, so calls from anywhere in the
package pass through a wrapper.  A wrapper opens a span (name, start, end,
parent) unless a span of the same name is already open: recursive calls
are counted but open no nested span.  print_sexpr recurses once per node,
tens of millions of times a pass, so its recursion runs unwrapped and is
counted from the printed text instead.
Each pass runs in a process of its own, so the process is the pass id.

A span's self time is its duration minus the time its child spans cover;
every `.s` metric is a self time, so the layers of a pass add up to it.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from functools import wraps
from typing import Callable, Dict, List, Optional, Tuple

# fault reasons of vm.eval_expr, by class
FAULT_CLASSES = ("payload_underrun", "aux_underrun", "type", "fragment")


def fault_class(reason: str) -> str:
    if reason == "payload-underrun":
        return "payload_underrun"
    if reason == "aux-underrun":
        return "aux_underrun"
    if reason.startswith("type:"):
        return "type"
    if reason == "fragment":
        return "fragment"
    raise ValueError(f"unclassified VM fault reason {reason!r}")


class Tracer:
    def __init__(self):
        self.span_names: List[str] = []
        self.name = array("i")  # per span: index into span_names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # -1 at the top
        self.calls: List[int] = []  # per span name, recursive entries included
        self.counts: Counter = Counter()  # work counters, by metric name
        self._depth: List[int] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        self.last_berry = None  # (P, T) of the last Berry construction

    def _name_id(self, name: str) -> int:
        if name not in self.span_names:
            self.span_names.append(name)
            self.calls.append(0)
            self._depth.append(0)
        return self.span_names.index(name)

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None,
             recursion: Optional[Tuple[object, Callable]] = None) -> Callable:
        """recursion=(module, count) serves a recursive fn defined in module:
        while its span is open the module's own name points at fn itself, so
        the recursive calls run unwrapped, and count(result) says how many
        there were."""
        nid = self._name_id(name)
        calls, depth, stack = self.calls, self._depth, self._stack
        names, start, end, parent = self.name, self.start, self.end, self.parent
        clock = time.perf_counter
        home, count = recursion or (None, None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if depth[nid]:
                return fn(*args, **kwargs)
            depth[nid] = 1
            if home is not None:
                setattr(home, fn.__name__, fn)
            i = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                depth[nid] = 0
                if home is not None:
                    setattr(home, fn.__name__, wrapper)
            if count is not None:
                calls[nid] += count(result)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def rebind(self, module: str, attr: str, name: str, on_result: Optional[Callable] = None,
               recursive_calls: Optional[Callable] = None):
        """Wrap module.attr everywhere in the package it is bound by name."""
        home = sys.modules[module]
        original = getattr(home, attr)
        recursion = (home, recursive_calls) if recursive_calls else None
        wrapper = self.wrap(original, name, on_result, recursion)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "omegalab" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append(lambda mod=mod: setattr(mod, attr, original))

    def rebind_methods(self, cls, attrs, name: str):
        """Wrap methods of a class under one span name (static methods too)."""
        for attr in attrs:
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(cls, attr, self.wrap(raw, name))
            self._undo.append(lambda attr=attr, raw=raw: setattr(cls, attr, raw))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.span_names, 0.0)
        for i in range(n):
            out[self.span_names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def child_spans(self, child: str, parent: str) -> int:
        """Number of spans named child whose parent span is named parent."""
        if child not in self.span_names or parent not in self.span_names:
            return 0
        c, p = self.span_names.index(child), self.span_names.index(parent)
        return sum(1 for i in range(len(self.name))
                   if self.name[i] == c and self.parent[i] >= 0 and self.name[self.parent[i]] == p)


def install(tracer: Tracer) -> None:
    """Rebind every traced layer boundary of the omegalab package."""
    from omegalab import bits

    counts = tracer.counts

    def add_len(metric):
        def on_result(result):
            counts[metric] += len(result)
        return on_result

    def on_eval(out):
        counts["vm.eval.steps"] += out.steps
        if out.kind == "faulted":
            counts["vm.eval.faulted." + fault_class(out.reason)] += 1
        else:
            counts["vm.eval." + out.kind] += 1

    def on_chain(report):
        counts["complexity.chain.pairs"] += len(report["pairs"])
        counts["complexity.chain.skipped"] += len(report["skipped"])

    def on_berry(result):
        tracer.last_berry = result

    def printed_nodes(text):
        """Recursive calls behind one print: one per node but the root.  An
        atom prints one character, a list its two parentheses."""
        return len(text) - text.count(")") - 1

    for module, attr, name, on_result in (
        ("omegalab.complexity", "gen_exprs", "complexity.gen_exprs", add_len("complexity.gen_exprs.exprs")),
        ("omegalab.complexity", "enumerate_halting", "complexity.sweep", add_len("complexity.sweep.records")),
        ("omegalab.complexity", "domain_runs", "complexity.domain_runs", None),
        ("omegalab.complexity", "build_table", "complexity.build_table", None),
        ("omegalab.complexity", "relative_complexity", "complexity.relative", None),
        ("omegalab.complexity", "check_chain_rule", "complexity.chain", on_chain),
        ("omegalab.vm", "eval_expr", "vm.eval", on_eval),
        ("omegalab.machines", "run_sd", "machines.run", None),
        ("omegalab.machines", "run_total", "machines.run", None),
        ("omegalab.machines", "run_c2", "machines.run_c2", None),
        ("omegalab.sexpr", "print_sexpr", "sexpr.print_sexpr", None),
        ("omegalab.sexpr", "to_bits", "sexpr.to_bits", None),
        ("omegalab.progs", "berry_driver", "progs.berry_driver", None),
        ("omegalab.progs", "verify_pair", "progs.verify", None),
        ("omegalab.progs", "verify_output", "progs.verify", None),
        ("omegalab.incompleteness", "build_berry_program", "incompleteness.build_berry", on_berry),
        ("omegalab.incompleteness", "elegance_oracle", "incompleteness.oracle", None),
        ("omegalab.omega", "omega_lower_bound", "omega.lower", None),
        ("omegalab.omega", "oracle_halting_from_omega", "omega.oracle", None),
        ("omegalab.reports", "emit_json", "reports.emit_json", add_len("reports.emit_json.bytes")),
        ("omegalab.cli", "main", "cli.main", None),
    ):
        tracer.rebind(module, attr, name, on_result,
                      printed_nodes if name == "sexpr.print_sexpr" else None)
    tracer.rebind_methods(bits.Dyadic, ("__post_init__", "__add__", "__sub__", "__lt__", "__le__",
                                        "__gt__", "__ge__", "pow2"), "bits.dyadic")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (call uninstall() first)."""
    self_s = tracer.self_times()
    calls = dict(zip(tracer.span_names, tracer.calls))
    m: Dict[str, float] = {}

    def span(name, metric=None, with_calls=True):
        metric = metric or name
        if with_calls:
            m[metric + (".ops" if name == "bits.dyadic" else ".calls")] = calls.get(name, 0)
        m[metric + ".s"] = self_s.get(name, 0.0)

    for name in ("complexity.gen_exprs", "complexity.sweep", "complexity.domain_runs",
                 "complexity.build_table", "complexity.relative", "vm.eval", "machines.run",
                 "machines.run_c2", "sexpr.print_sexpr", "sexpr.to_bits", "progs.berry_driver",
                 "progs.verify", "incompleteness.oracle", "omega.lower", "bits.dyadic",
                 "reports.emit_json", "cli.main"):
        span(name)
    span("incompleteness.build_berry", with_calls=False)
    span("omega.oracle", with_calls=False)
    c = tracer.counts
    m["complexity.gen_exprs.exprs"] = c["complexity.gen_exprs.exprs"]
    m["complexity.sweep.records"] = c["complexity.sweep.records"]
    m["complexity.domain_runs.runs"] = tracer.child_spans("vm.eval", "complexity.domain_runs")
    m["complexity.chain.pairs"] = c["complexity.chain.pairs"]
    m["complexity.chain.skipped"] = c["complexity.chain.skipped"]
    m["vm.eval.steps"] = c["vm.eval.steps"]
    m["vm.eval.us_per_call"] = 1e6 * m["vm.eval.s"] / m["vm.eval.calls"] if m["vm.eval.calls"] else 0.0
    m["vm.steps_per_s"] = m["vm.eval.steps"] / m["vm.eval.s"] if m["vm.eval.s"] else 0.0
    for kind in ("halted", "out_of_budget"):
        m["vm.eval." + kind] = c["vm.eval." + kind]
    for cls in FAULT_CLASSES:
        m["vm.eval.faulted." + cls] = c["vm.eval.faulted." + cls]
    P, T = tracer.last_berry or (None, 0)
    m["incompleteness.threshold"] = T
    m["incompleteness.p_size_bits"] = P.size_bits if P is not None else 0
    m["reports.emit_json.bytes"] = c["reports.emit_json.bytes"]
    return m

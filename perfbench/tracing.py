"""Per-layer spans and counts, recorded by wrapping mmtsat's public functions.

Nothing in mmtsat is edited: install() swaps the module attributes that
run_campaign and solve_combo look up at call time for timing wrappers,
and uninstall() puts the originals back.  Spans stay in memory (name,
start, end, parent, thread, CPU time, with the combo label as trace id)
until the caller writes them out.

A layer's reported time is its self time: span duration minus the
duration of its child spans.  driver.self_s is campaign wall time that no
layer span covers, so work moved out of this process shows up there
instead of vanishing.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass

from mmtsat import boolexpr, driver, encoder

# Span layers, in report order.
LAYERS = (
    "encoder.orbits",
    "encoder.encode",
    "boolexpr.to_dimacs",
    "boolexpr.write",
    "driver.solver",
    "driver.parse",
    "driver.checkpoint",
    "encoder.decode",
    "tensor.verify",
    "symmetry.is_group_symmetric",
    "canonical.check_canonical",
    "tensor.dump",
)

COUNTS = (
    "encoder.primary_vars",
    "boolexpr.vars",
    "boolexpr.aux_vars",
    "boolexpr.clauses",
    "boolexpr.dimacs_bytes",
    "driver.checkpoint.bytes",
)

# Root span of one solve_combo call; carries the trace id, is not a layer.
COMBO = "driver.combo"

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {f"{layer}.{part}": unit for layer in LAYERS
             for part, unit in (("wall_s", "s"), ("cpu_s", "s"), ("wait_s", "s"),
                                ("calls", "count"))}
PER_LAYER.update({
    "encoder.primary_vars": "count",
    "boolexpr.vars": "count",
    "boolexpr.aux_vars": "count",
    "boolexpr.clauses": "count",
    "boolexpr.dimacs_bytes": "bytes",
    "driver.checkpoint.bytes": "bytes",
    "driver.combos_run": "count",
    "driver.combos_cancelled": "count",
    "driver.combos_after_sat": "count",
    "driver.self_s": "s",
    "trace.overhead_s": "s",
})


@dataclass
class Span:
    id: int
    name: str
    trace: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0
    state: str = ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs, trace: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name,
                    trace or (parent.trace if parent else "campaign"),
                    parent.id if parent else None, threading.get_ident(),
                    time.perf_counter())
        stack.append(span)
        cpu0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.cpu = time.thread_time() - cpu0
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        return span, result

    def count(self, amounts: dict[str, int]) -> None:
        with self._lock:
            for key, amount in amounts.items():
                self.counts[key] += amount

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _plain(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                return self._call(name, original, args, kwargs)[1]
            return wrapper
        return make

    def install(self) -> None:
        def solve_combo(original):
            def wrapper(group, n, spec, *args, **kwargs):
                span, status = self._call(COMBO, original, (group, n, spec) + args,
                                          kwargs, trace=spec.label())
                span.state = status.state
                return status
            return wrapper

        def encode(original):
            def wrapper(*args, **kwargs):
                cnf, varmap = self._call("encoder.encode", original, args, kwargs)[1]
                primary = len(varmap.primary)
                self.count({"encoder.primary_vars": primary,
                            "boolexpr.vars": cnf.num_vars,
                            "boolexpr.aux_vars": cnf.num_vars - primary,
                            "boolexpr.clauses": len(cnf.clauses)})
                return cnf, varmap
            return wrapper

        def to_dimacs(original):
            def wrapper(cnf):
                text = self._call("boolexpr.to_dimacs", original, (cnf,), {})[1]
                self.count({"boolexpr.dimacs_bytes": len(text)})  # DIMACS is ASCII
                return text
            return wrapper

        def write_checkpoint(original):
            def wrapper(path, *args, **kwargs):
                self._call("driver.checkpoint", original, (path,) + args, kwargs)
                self.count({"driver.checkpoint.bytes": os.path.getsize(path)})
            return wrapper

        self._patch(driver, "solve_combo", solve_combo)
        self._patch(driver, "encode", encode)
        self._patch(encoder, "build_symbolic_orbits", self._plain("encoder.orbits"))
        self._patch(boolexpr.CnfInstance, "to_dimacs", to_dimacs)
        self._patch(boolexpr.CnfInstance, "write", self._plain("boolexpr.write"))
        self._patch(driver, "run_solver", self._plain("driver.solver"))
        self._patch(driver, "parse_solver_output", self._plain("driver.parse"))
        self._patch(driver, "write_checkpoint", write_checkpoint)
        self._patch(driver, "decode", self._plain("encoder.decode"))
        self._patch(driver, "verify", self._plain("tensor.verify"))
        self._patch(driver, "is_group_symmetric",
                    self._plain("symmetry.is_group_symmetric"))
        self._patch(driver, "check_canonical", self._plain("canonical.check_canonical"))
        self._patch(driver, "dump_decomposition", self._plain("tensor.dump"))
        self._patch(driver, "dump_symmetric", self._plain("tensor.dump"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def summary(self, started: float, ended: float) -> dict[str, float]:
        """Per-layer self times, call counts and counters of one campaign
        that ran from started to ended (perf_counter seconds)."""
        spans = self.spans
        child_wall: dict[int, float] = {}
        child_cpu: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_wall[s.parent] = child_wall.get(s.parent, 0.0) + s.end - s.start
                child_cpu[s.parent] = child_cpu.get(s.parent, 0.0) + s.cpu
        out: dict[str, float] = dict(self.counts)
        for layer in LAYERS:
            mine = [s for s in spans if s.name == layer]
            wall = sum(s.end - s.start - child_wall.get(s.id, 0.0) for s in mine)
            cpu = sum(s.cpu - child_cpu.get(s.id, 0.0) for s in mine)
            out[f"{layer}.wall_s"] = wall
            out[f"{layer}.cpu_s"] = cpu
            out[f"{layer}.wait_s"] = wall - cpu
            out[f"{layer}.calls"] = len(mine)

        covered = 0.0
        reach = started
        for s in sorted((s for s in spans if s.name in LAYERS), key=lambda s: s.start):
            if s.end > reach:
                covered += s.end - max(s.start, reach)
                reach = s.end
        out["driver.self_s"] = (ended - started) - covered

        combos = sorted((s for s in spans if s.name == COMBO), key=lambda s: s.end)
        sat_end = next((s.end for s in combos if s.state == "sat"), None)
        out["driver.combos_run"] = len(combos)
        out["driver.combos_after_sat"] = 0 if sat_end is None else \
            sum(1 for s in combos if s.end > sat_end)
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

"""The traced run: per-layer numbers for a workload's compiles.

Every compile of the workload runs three times, interleaved so drift
hits all three alike:

- ``pool``: on the workload's warm pool behind :class:`DispatchProbe`
  (the parallel layer: dispatch wall, tasks, result bytes, the tail
  after the last result);
- ``serial``: in-process, ``SerialBackend`` behind :class:`WorkerSlots`
  (one worker-side phase 1 per worker slot, as on the pool) and inline
  executors, no spans — the untraced twin of the next pass;
- ``traced``: the same, with every layer's entry points wrapped.

``trace.overhead`` is traced wall / serial wall - 1.  The traced pass's
self times plus ``driver.self_s`` must add up to its wall time within
:data:`RECONCILE_TOLERANCE`.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import harness
from tracing import (
    LAYER_METRICS,
    DispatchProbe,
    LayerTracer,
    WorkerSlots,
    inline_thread_pools,
    pass_metric,
)

PASSES = ("pool", "serial", "traced")

#: |sum of self times - traced wall| / traced wall must stay below this;
#: the remainder is time outside the root span (the call into it)
RECONCILE_TOLERANCE = 0.02

#: per-layer metrics, in the order they are printed (units by suffix)
COUNT_METRICS = (
    "ir.instructions",
    "opt.instructions_visited",
    "opt.rounds",
    "codegen.modulo_probes",
    "codegen.spill_slots",
    "codegen.work_units",
    "parallel.tasks",
    "parallel.result_bytes",
    "cache.bytes_read",
    "lang.fallbacks",
    "service.rejected",
    "sim_cycles",
    "code_words",
)
RATIO_METRICS = (
    "lang.parse_cache_hit_ratio",
    "codegen.modulo_yield",
    "parallel.efficiency",
    "cache.hit_ratio",
    "cache.link_hit_ratio",
    "service.pool_utilization",
    "service.cache_served_ratio",
    "trace.overhead",
    "failed_share",
)
SECONDS_METRICS = (
    "parallel.dispatch_s",
    "driver.tail_s",
    "service.queue_wait_p50_s",
    "service.queue_wait_p90_s",
    "service.run_p50_s",
    "loadgen.lag_p90_s",
)


def pipeline_passes() -> List[str]:
    from repro.opt import pass_manager

    return [name for name, _fn in pass_manager._PIPELINE]


def all_metric_names() -> List[str]:
    return (
        list(LAYER_METRICS.values())
        + [pass_metric(name) for name in pipeline_passes()]
        + list(SECONDS_METRICS)
        + list(COUNT_METRICS)
        + list(RATIO_METRICS)
    )


def unit_of(name: str) -> str:
    if name.endswith("_s") or name == "opt.s":
        return "s"
    if name in COUNT_METRICS:
        return "bytes" if name.endswith("bytes") or name.endswith("_read") else "count"
    return "ratio"


class TracedRun:
    """Runs compiles through the three passes and reports the layers."""

    def __init__(self, pool, compiler_for: Callable, tag: str):
        from repro.parallel.local import SerialBackend

        self.probe = DispatchProbe(pool)
        self.workers = pool.worker_count
        self.compilers = {
            "pool": compiler_for(self.probe, "pool"),
            "serial": compiler_for(WorkerSlots(SerialBackend(), self.workers), "serial"),
            "traced": compiler_for(WorkerSlots(SerialBackend(), self.workers), "traced"),
        }
        self.probe.reset()  # set-up compiles (cache fills) are not dispatch
        self.tag = tag
        self.tracer = LayerTracer()
        self.walls: Dict[str, float] = defaultdict(float)
        self.fallbacks = 0
        self.items = 0
        #: pass -> worker-side phase-1 parses (function-master memo misses)
        self.worker_parses: Dict[str, int] = defaultdict(int)
        #: (op, harness.Compiled, {(section, fn): probes} or None)
        self.compiled: List[tuple] = []

    def compile(self, name: str, source: str, outcome: harness.Outcome):
        """Compile ``source`` once in each pass."""
        from repro.driver.function_master import clear_phase1_cache

        # Alternate which in-process pass goes first, so drift in host
        # speed does not land on trace.overhead.
        order = PASSES if self.items % 2 == 0 else ("pool", "traced", "serial")
        self.items += 1
        for pass_name in order:
            compiler = self.compilers[pass_name]
            filename = f"{name}.{self.tag}.{pass_name}.w2"
            op = (name, f"{pass_name} pass")
            clear_phase1_cache()
            gc.collect()
            outcome.attempt(op)
            probes = None
            try:
                if pass_name == "pool":
                    self.probe.compile_started()
                    start = time.perf_counter()
                    result = compiler.compile(source, filename)
                    end = time.perf_counter()
                    self.probe.compile_returned(end)
                elif pass_name == "serial":
                    with inline_thread_pools():
                        start = time.perf_counter()
                        result = compiler.compile(source, filename)
                        end = time.perf_counter()
                else:
                    before = dict(self.tracer.function_probes)
                    compiled_before = len(self.tracer.compiled_functions)
                    with self.tracer:
                        start = time.perf_counter()
                        result = compiler.compile(source, filename)
                        end = time.perf_counter()
                    probes = {
                        key: self.tracer.function_probes.get(key, 0) - before.get(key, 0)
                        for key in self.tracer.compiled_functions[compiled_before:]
                    }
                    stats = compiler.last_phase1_stats
                    if stats is not None and stats.mode == "fallback":
                        self.fallbacks += 1
            except Exception as error:  # noqa: BLE001 - counted, reported
                outcome.problem(f"{harness.label(op)}: compile failed: {error!r}", op)
                continue
            self.walls[pass_name] += end - start
            self.worker_parses[pass_name] += sum(
                f.phase1_cache_misses for f in result.profile.functions
            )
            self.compiled.append((op, harness.record(result), probes))
            del result  # freed here, not inside the next pass's timed call

    def verify(self, outcome: harness.Outcome, sources: Dict[str, tuple]) -> Dict:
        """Digests, fuzz semantics and determinism for every pass.
        ``sources`` maps name -> (source, inputs or None)."""
        refs = harness.references(sources)
        for op, compiled, probes in self.compiled:
            harness.check_against(outcome, op, compiled, refs[op[0]], probes)
        for name, (_source, inputs) in sources.items():
            if inputs is not None:
                harness.check_fuzz(outcome, name, refs[name])
        return refs

    def report(
        self,
        outcome: harness.Outcome,
        refs: Dict,
        extra: Optional[Dict[str, float]] = None,
        not_applicable: Optional[Dict[str, str]] = None,
    ) -> None:
        """Fill ``outcome`` with every per-layer metric.

        ``extra`` supplies workload-specific values (service, loadgen);
        ``not_applicable`` maps metric -> reason and reports it as 0 with
        an "n/a" row."""
        self.probe.settle()
        tracer = self.tracer
        values: Dict[str, Optional[float]] = {}
        for category, metric in LAYER_METRICS.items():
            values[metric] = tracer.self_s.get(category, 0.0)
        for name in pipeline_passes():
            values[pass_metric(name)] = tracer.self_s.get(f"opt.pass.{name}", 0.0)
        counts = tracer.counts
        for name in (
            "ir.instructions",
            "opt.instructions_visited",
            "opt.rounds",
            "codegen.modulo_probes",
            "codegen.spill_slots",
            "codegen.work_units",
            "cache.bytes_read",
        ):
            values[name] = counts.get(name, 0)
        probes = counts.get("codegen.modulo_probes", 0)
        values["codegen.modulo_yield"] = (
            counts.get("codegen.pipelined_loops", 0) / probes if probes else None
        )
        values["lang.fallbacks"] = self.fallbacks
        values["lang.parse_cache_hit_ratio"] = tracer.ratio("parse")
        values["cache.hit_ratio"] = tracer.ratio("objects")
        link_probes = counts.get("cache.link.probes", 0) + counts.get("cache.modules.probes", 0)
        link_hits = counts.get("cache.link.hits", 0) + counts.get("cache.modules.hits", 0)
        values["cache.link_hit_ratio"] = link_hits / link_probes if link_probes else None
        values["parallel.dispatch_s"] = self.probe.dispatch_s
        values["parallel.tasks"] = self.probe.tasks
        values["parallel.result_bytes"] = self.probe.result_bytes
        values["parallel.efficiency"] = (
            tracer.worker_self_s / (self.workers * self.probe.dispatch_s)
            if self.probe.dispatch_s
            else None
        )
        values["driver.tail_s"] = self.probe.tail_s
        wall = self.walls["traced"]
        serial = self.walls["serial"]
        values["trace.overhead"] = wall / serial - 1.0 if serial else None
        names = {op[0] for op, _c, _pr in self.compiled}
        values["code_words"] = sum(
            refs[name].compiled.code_words for name in names if refs[name].compiled
        )
        values["sim_cycles"] = sum(refs[name].sim_cycles for name in names)
        values["failed_share"] = outcome.failed / max(1, outcome.attempted)
        values.update(extra or {})

        reasons = dict(not_applicable or {})
        if harness.cores() < 2:
            reasons["parallel.efficiency"] = f"host has {harness.cores()} core"
        default_reasons = {
            "codegen.modulo_yield": "no modulo-schedule probes",
            "parallel.efficiency": "nothing was dispatched",
            "lang.parse_cache_hit_ratio": "no parse cache in this workload",
            "cache.hit_ratio": "no artifact cache in this workload",
            "cache.link_hit_ratio": "no link cache in this workload",
        }
        for metric in all_metric_names():
            value = values.get(metric)
            if metric in reasons or value is None:
                reason = reasons.get(metric) or default_reasons.get(metric, "nothing measured")
                outcome.row(f"  {metric:40s} n/a ({reason})")
                outcome.metric(metric, 0.0, unit_of(metric))
                continue
            outcome.metric(metric, value, unit_of(metric))

        total = tracer.total_self_s()
        gap = abs(total - wall) / wall if wall else 1.0
        outcome.row(
            f"traced pass: wall {wall:.4f} s, sum of layer self times "
            f"{total:.4f} s (driver.self_s {values['driver.self_s']:.4f} s), "
            f"gap {gap:.2%} (tolerance {RECONCILE_TOLERANCE:.0%}); "
            f"trace.overhead {outcome.metrics['trace.overhead'][0]:.2%}"
        )
        outcome.row(
            "traced and serial passes: in-process SerialBackend, phase-1/"
            "phase-4 thread pools run inline; parallel.* and driver.tail_s "
            f"come from the {self.workers}-worker warm pool pass"
        )
        outcome.row(
            f"worker-side phase 1 (in lang.*, counted in parallel.efficiency): "
            f"{self.worker_parses['traced']} parse(s) in the traced pass, one "
            f"per worker slot of {self.workers}; the pool pass ran "
            f"{self.worker_parses['pool']}"
        )
        if gap > RECONCILE_TOLERANCE:
            outcome.problem(
                f"reconciliation: layer self times {total:.4f} s vs traced "
                f"wall {wall:.4f} s ({gap:.2%} > {RECONCILE_TOLERANCE:.0%})"
            )
        if tracer.foreign_roots:
            outcome.problem(
                f"reconciliation: {tracer.foreign_roots} span(s) ran off the "
                f"traced thread"
            )

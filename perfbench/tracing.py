"""Per-layer attribution by timing the calls into each layer, from outside.

Nothing in the compiler is modified on disk: :class:`LayerTracer`
replaces a layer's public entry points with timing wrappers for the
duration of a ``with`` block and puts the originals back afterwards.
Each wrapper opens a span; a span's *self time* is its duration minus
the spans nested inside it, so the self times of all spans plus the
driver's own self time add up to the wall time of the traced compile.

A traced compile runs every layer on the calling thread:
``SerialBackend`` behind :class:`WorkerSlots` for the worker-side layers
and an inline executor for the phase-1 and phase-4 thread pools.  Spans
never overlap, which is what lets the self times reconcile with the wall
clock.

:class:`DispatchProbe` is the one wrapper used on the real warm pool: a
delegating ``ExecutionBackend`` that records when results arrive, so the
parallel layer is measured where the parallelism is.
"""

from __future__ import annotations

import contextlib
import functools
import pickle
import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

# span category -> reported metric
LAYER_METRICS = {
    "driver": "driver.self_s",
    "lang.parse": "lang.parse_s",
    "lang.sema": "lang.sema_s",
    "lang.front": "lang.front_s",
    "ir.lower": "ir.lower_s",
    "opt": "opt.s",
    "codegen.regalloc": "codegen.regalloc_s",
    "codegen.select": "codegen.select_s",
    "codegen.list_sched": "codegen.list_sched_s",
    "codegen.modulo": "codegen.modulo_s",
    "codegen.other": "codegen.other_s",
    "asmlink.assemble": "asmlink.assemble_s",
    "asmlink.link": "asmlink.link_s",
    "asmlink.io_driver": "asmlink.io_driver_s",
    "asmlink.digest": "asmlink.digest_s",
    "asmlink.download": "asmlink.download_s",
    "asmlink.other": "asmlink.other_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "cache.fingerprint": "cache.fingerprint_s",
    "parallel.task": "parallel.task_overhead_s",
}

#: the span that opens a function master's task: everything inside it
#: is worker-side work
WORKER_ROOT = "parallel.task"


def pass_metric(name: str) -> str:
    return f"opt.pass.{name}_s"


class InlineExecutor:
    """A ``ThreadPoolExecutor`` stand-in that runs each job on submit."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - future carries it
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


@contextlib.contextmanager
def inline_thread_pools():
    """Run the phase-1 and phase-4 thread pools on the calling thread."""
    from repro.driver import phases

    original = phases.ThreadPoolExecutor
    phases.ThreadPoolExecutor = InlineExecutor
    try:
        yield
    finally:
        phases.ThreadPoolExecutor = original


class LayerTracer:
    """Install timing wrappers; accumulate self time and counts.

    Inside the ``with`` block the thread pools run inline, as under
    :func:`inline_thread_pools`, so the traced and untraced in-process
    passes differ by the wrappers alone."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.worker_self_s = 0.0
        #: functions run through codegen, in order, and their modulo
        #: probes (the determinism cross-check compares both)
        self.compiled_functions: List[tuple] = []
        self.function_probes: Dict[tuple, int] = defaultdict(int)
        self._current: Optional[tuple] = None
        #: spans that opened with no parent on a thread other than the
        #: one that installed the tracer (would break reconciliation)
        self.foreign_roots = 0
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._patches: List[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, category: str, fn: Callable, after: Optional[Callable] = None):
        tracer = self
        worker_root = category == WORKER_ROOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not stack and threading.get_ident() != tracer._owner:
                tracer.foreign_roots += 1
            inside = worker_root or (bool(stack) and stack[-1][1])
            frame = [0.0, inside]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                tracer.self_s[category] += own
                if inside:
                    tracer.worker_self_s += own
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def patch(self, owner, attr: str, category: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(category, original, after))

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        from repro.driver import phases

        self.replace(phases, "ThreadPoolExecutor", InlineExecutor)
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        import repro.cache as cache_pkg
        from repro.cache import link_store, parse_store, store
        from repro.codegen import compiler, modulo
        from repro.driver import function_master, master, phases
        from repro.lang.parser import Parser
        from repro.lang.sema import FunctionChecker
        from repro.opt import pass_manager
        from repro.parallel import local

        patch = self.patch
        count = self.counts

        # driver: the master's compile is the root span
        patch(master.ParallelCompiler, "compile", "driver")

        # lang: phase 1 on the master and in the function masters
        for name in ("tokenize", "scan_boundaries", "_lex_skeleton"):
            patch(phases, name, "lang.parse")
        for name in ("parse_module", "parse_function", "parse_function_signature"):
            patch(Parser, name, "lang.parse")
        for name in (
            "check_module",
            "check_module_structure",
            "section_function_table",
            "detect_call_cycles",
            "function_call_sites",
        ):
            patch(phases, name, "lang.sema")
        patch(FunctionChecker, "check", "lang.sema")
        for owner in (phases, master, function_master):
            for name in ("phase1_parse_and_check", "phase1_parallel", "phase1_cached"):
                if hasattr(owner, name):
                    patch(owner, name, "lang.front")

        # ir
        def lowered(fn_ir, _args):
            count["ir.instructions"] += fn_ir.instruction_count()

        patch(phases, "lower_function", "ir.lower", lowered)

        # opt: the pass manager and each pipeline pass
        def optimized(stats, _args):
            count["opt.instructions_visited"] += stats.work_units
            count["opt.rounds"] += stats.rounds

        patch(pass_manager.PassManager, "run", "opt", optimized)
        pipeline = pass_manager._PIPELINE
        self._patches.append((pass_manager, "_PIPELINE", pipeline))
        pass_manager._PIPELINE = [
            (name, self.wrap(f"opt.pass.{name}", fn)) for name, fn in pipeline
        ]

        # codegen
        def compiled(obj, _args):
            count["codegen.work_units"] += obj.info.work_units
            count["codegen.spill_slots"] += obj.info.spill_slots
            count["codegen.pipelined_loops"] += obj.info.pipelined_loops

        def probed(_result, _args):
            count["codegen.modulo_probes"] += 1
            self.function_probes[self._current] += 1

        patch(function_master, "compile_one_function", "codegen.other")
        spanned = function_master.compile_one_function

        def naming(parsed, section_name, function_name, *args, **kwargs):
            self._current = (section_name, function_name)
            self.compiled_functions.append(self._current)
            return spanned(parsed, section_name, function_name, *args, **kwargs)

        self.replace(function_master, "compile_one_function", naming)
        patch(phases, "compile_function", "codegen.other", compiled)
        patch(compiler, "allocate_registers", "codegen.regalloc")
        patch(compiler, "select_function", "codegen.select")
        patch(compiler, "schedule_block", "codegen.list_sched")
        patch(modulo, "try_modulo_schedule", "codegen.modulo", probed)
        patch(compiler, "emit_pipelined_loop", "codegen.modulo")

        # asmlink
        patch(function_master, "assemble_function", "asmlink.assemble")
        patch(phases, "assemble_function", "asmlink.assemble")
        patch(phases, "link_section", "asmlink.link")
        patch(phases, "build_io_driver", "asmlink.io_driver")
        patch(master, "module_digest", "asmlink.digest")
        patch(phases, "build_download_module", "asmlink.download")
        patch(master, "module_size_words", "asmlink.download")
        patch(phases.Phase4Runner, "finish", "asmlink.other")
        patch(master, "phase4_link_and_download", "asmlink.other")

        # parallel: per-task packaging inside the function master
        patch(local, "run_compile_task", "parallel.task")
        patch(function_master, "run_function_master", "parallel.task")
        patch(function_master, "result_payload_digest", "parallel.task")

        # cache: every on-disk tier shares PickleStore's get/put
        def got(result, args):
            tier = args[0].SUBDIR
            hit = result is not None
            count[f"cache.{tier}.probes"] += 1
            count[f"cache.{tier}.hits"] += int(hit)
            if hit:
                try:
                    count["cache.bytes_read"] += (
                        args[0]._entry_path(args[1]).stat().st_size
                    )
                except OSError:
                    pass

        patch(store.PickleStore, "get", "cache.get", got)
        patch(store.PickleStore, "put", "cache.put")
        patch(cache_pkg, "module_fingerprints", "cache.fingerprint")
        patch(link_store, "section_link_key", "cache.fingerprint")
        patch(link_store, "module_link_key", "cache.fingerprint")
        patch(parse_store, "window_key", "cache.fingerprint")

    # -- results ------------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def ratio(self, tier: str) -> Optional[float]:
        probes = self.counts.get(f"cache.{tier}.probes", 0)
        if probes == 0:
            return None
        return self.counts.get(f"cache.{tier}.hits", 0) / probes


class WorkerSlots:
    """Delegating backend: in-process tasks with per-worker phase-1 memos.

    On the warm pool each worker that receives a task of a module parses
    the module once (its phase-1 memo misses), then serves the rest of its
    tasks from the memo.  In one process the master's own phase-1 parse
    would serve every task instead.  This backend splits each batch into
    ``workers`` contiguous slots and clears the memo before each slot, so
    the in-process passes run one worker-side phase 1 per slot, as the
    pool does.
    """

    def __init__(self, inner, workers: int):
        self.inner = inner
        self.workers = workers

    @property
    def worker_count(self) -> int:
        return self.inner.worker_count

    @property
    def effective_worker_count(self) -> int:
        return self.inner.effective_worker_count

    def run_tasks(self, tasks):
        return list(self.run_tasks_streaming(tasks))

    def run_tasks_streaming(self, tasks):
        from repro.driver.function_master import clear_phase1_cache

        slots = min(self.workers, len(tasks))
        for slot in range(slots):
            clear_phase1_cache()
            batch = tasks[slot * len(tasks) // slots : (slot + 1) * len(tasks) // slots]
            yield from self.inner.run_tasks_streaming(batch)


class DispatchProbe:
    """Delegating ``ExecutionBackend``: times the parallel middle.

    ``dispatch_s`` runs from the call into the backend to the last result
    it yields; ``tail_s`` from that last result to the end of the compile
    (closed by :meth:`compile_returned`).  Results are kept until
    :meth:`settle` so their pickled size is measured off the clock.
    """

    def __init__(self, inner):
        self.inner = inner
        self.reset()

    def reset(self) -> None:
        self.dispatch_s = 0.0
        self.tail_s = 0.0
        self.tasks = 0
        self.result_bytes = 0
        self._last: Optional[float] = None
        self._held: list = []

    @property
    def worker_count(self) -> int:
        return self.inner.worker_count

    @property
    def effective_worker_count(self) -> int:
        return self.inner.effective_worker_count

    def run_tasks(self, tasks):
        return list(self.run_tasks_streaming(tasks))

    def run_tasks_streaming(self, tasks):
        self.tasks += len(tasks)
        start = time.perf_counter()
        for result in self.inner.run_tasks_streaming(tasks):
            self._last = time.perf_counter()
            self._held.append(result)
            yield result
        if self._last is not None:
            self.dispatch_s += self._last - start

    def compile_started(self) -> None:
        self._last = None

    def compile_returned(self, now: float) -> None:
        if self._last is not None:
            self.tail_s += now - self._last
        self._last = None

    def settle(self) -> None:
        for result in self._held:
            self.result_bytes += len(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            )
        self._held.clear()

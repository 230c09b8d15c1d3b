"""``edit_loop``: a seeded session of one-function edits to the user program.

Closed loop, one client.  Each step inserts one statement before the
``return`` of a seeded pick among ``mech_eng``'s nine functions (edits
accumulate) and recompiles through the same ``ParallelCompiler`` — warm
pool, ``phase1_jobs = phase4_jobs = nproc`` — with an on-disk
``ArtifactCache``, ``ParseCache`` and ``LinkCache`` in a fresh directory.
Picks walk seeded permutations of the nine functions, so two thirds of
the edits hit the small helpers and one third the ~300-line solvers.  The
timed loop measures whole rounds (each function edited once), so every
seed times the same mix.  Set-up fills those caches with the unedited
program.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import subprocess
import sys
import time
from typing import Dict, List

import harness
from cold_build import new_pool
from layers import TracedRun

#: traced-run minimum; the timed loop runs whole rounds of nine edits
MIN_STEPS = 3
SETUP_REPEATS = 3


class Session:
    """The seeded edit sequence: ``step(k)`` -> (edited function, source)."""

    def __init__(self, seed: int):
        from repro.workloads.user_program import user_program

        self.rng = random.Random(seed)
        self.lines = user_program().splitlines()
        self.functions = [
            line.split()[1].split("(")[0]
            for line in self.lines
            if line.strip().startswith("function ")
        ]
        self.steps: List[tuple] = []
        self.order: List[str] = []

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def step(self, index: int) -> tuple:
        while len(self.steps) <= index:
            self._edit(len(self.steps))
        return self.steps[index]

    def _edit(self, index: int) -> None:
        if not self.order:
            self.order = list(self.functions)
            self.rng.shuffle(self.order)
        target = self.order.pop()
        inside = False
        for position, line in enumerate(self.lines):
            if line.strip().startswith(f"function {target}("):
                inside = True
            elif inside and line.strip().startswith("return "):
                indent = line[: len(line) - len(line.lstrip())]
                self.lines.insert(position, f"{indent}acc := acc + {index + 1}.5;")
                break
        self.steps.append((target, self.source()))


def caches(directory):
    from repro.cache import ArtifactCache, LinkCache, ParseCache

    return dict(
        cache=ArtifactCache(directory),
        parse_cache=ParseCache(directory),
        link_cache=LinkCache(directory),
    )


def filled_compiler(backend, tag: str, source: str):
    """A compiler on a fresh cache directory, filled with ``source``."""
    from repro import ParallelCompiler

    jobs = harness.cores()
    compiler = ParallelCompiler(
        backend=backend,
        phase1_jobs=jobs,
        phase4_jobs=jobs,
        **caches(harness.scratch_dir(f"edit_{tag}_")),
    )
    compiler.compile(source, f"mech_eng.{tag}.fill.w2")
    return compiler


def check_step(op: tuple, target: str, result, outcome: harness.Outcome) -> None:
    """Self-check: the edited function misses, the other eight hit."""
    for report in result.profile.functions:
        want_miss = report.name == target
        if (report.artifact_cache_misses, report.artifact_cache_hits) != (
            int(want_miss),
            int(not want_miss),
        ):
            outcome.problem(
                f"self-check: {harness.label(op)}: {report.name} "
                f"{'missed' if report.artifact_cache_misses else 'hit'} the "
                f"artifact cache (edited: {target})",
                op,
            )


class Server:
    """One ``warpcc serve`` subprocess (default workers, fresh cache
    directory), reached over its TCP protocol."""

    def __init__(self, tag: str):
        from repro.service.client import ServiceClient

        self.dir = harness.scratch_dir(f"serve_{tag}_")
        self.log = open(self.dir / "server.log", "w")
        env = dict(os.environ, PYTHONPATH=str(harness.SRC))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--cache-dir", str(self.dir / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env=env,
        )
        self.client = None
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("warpcc service on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.client = ServiceClient(line.split()[3], timeout=60)
            self.client.ping()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Drain and shut down; kill the server if it does not exit."""
        try:
            if self.proc.poll() is None:
                try:
                    self.client.shutdown(drain=True)
                except Exception:  # noqa: BLE001 - no client yet, or gone: kill below
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


def service_pass(seed: int, initial: str, steps: List[tuple], outcome) -> tuple:
    """Replay the edit steps through a ``warpcc serve`` subprocess (closed
    loop, one client, default workers, fresh cache) — the service layer
    as an editor driving the compile service sees it.  Returns
    (service metrics, [(step name, job document)])."""
    server = Server(f"edit{seed}")
    jobs = []
    try:
        server.client.submit_and_wait(initial, filename="mech_eng.w2", timeout=120)
        for name, target, source in steps:
            op = (name, "service")
            outcome.attempt(op)
            job = server.client.submit_and_wait(source, filename="mech_eng.w2", timeout=120)
            jobs.append((op, target, job))
        stats = server.client.status()["stats"]
    finally:
        server.stop()
    waits, runs, served = [], [], 0
    for op, target, job in jobs:
        if job["state"] != "done":
            outcome.problem(
                f"{harness.label(op)}: {job['state']} {job.get('error') or ''}", op
            )
            continue
        waits.append(job["started_at"] - job["submitted_at"])
        runs.append(job["finished_at"] - job["started_at"])
        served += job["cache_served"]
        if job["cache_served"] != 8:
            outcome.problem(
                f"self-check: {harness.label(op)}: {job['cache_served']}/8 unedited "
                f"function(s) served from the cache (edited: {target})",
                op,
            )
    metrics = {
        "service.queue_wait_p50_s": harness.median(waits),
        "service.queue_wait_p90_s": harness.percentile(waits, 90),
        "service.run_p50_s": harness.median(runs),
        "service.pool_utilization": stats.get("utilization", 0.0),
        "service.rejected": stats.get("rejected", 0),
        "service.cache_served_ratio": served / (9 * len(runs)) if runs else None,
    }
    return metrics, [(op, job) for op, _target, job in jobs]


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    from repro.driver.function_master import clear_phase1_cache

    outcome = harness.Outcome()
    session = Session(seed)
    initial = session.source()
    outcome.row(
        f"edit_loop: closed loop, 1 client, {harness.cores()} warm workers, "
        f"artifact + parse + link caches on disk"
    )
    setups: List[float] = []
    pool = compiler = None
    for index in range(SETUP_REPEATS):
        if pool is not None:
            pool.shutdown()
        start = time.perf_counter()
        pool, _ = new_pool(f"{seed}_{index}")
        try:
            compiler = filled_compiler(pool, f"s{index}", initial)
        except BaseException:
            pool.shutdown()
            raise
        setups.append(time.perf_counter() - start)
    sources: Dict[str, tuple] = {}
    try:
        if trace:
            traced = TracedRun(
                pool, lambda backend, name: filled_compiler(backend, name, initial), f"t{seed}"
            )
            clock = harness.Clock(seconds)
            steps: List[tuple] = []
            last = 0.0
            while clock.room_for(last, len(steps), MIN_STEPS):
                began = time.perf_counter()
                target, source = session.step(len(steps))
                name = f"step{len(steps) + 1}_{target}"
                sources[name] = (source, None)
                steps.append((name, target, source))
                traced.compile(name, source, outcome)
                last = time.perf_counter() - began
            pool.shutdown()
            service, served = service_pass(seed, initial, steps, outcome)
            refs = traced.verify(outcome, sources)
            for op, job in served:
                ref = refs[op[0]]
                if job["state"] == "done" and (
                    ref.compiled is None
                    or ref.compiled.digest_hash != harness.text_hash(job["digest"])
                ):
                    outcome.problem(
                        f"{harness.label(op)}: digest differs from the sequential compiler's",
                        op,
                    )
            traced.report(
                outcome,
                refs,
                extra=service,
                not_applicable={
                    "loadgen.lag_p90_s": "closed loop: no arrival schedule",
                    "sim_cycles": "mech_eng is not simulated",
                },
            )
            outcome.row(
                f"service.*: the same {len(steps)} edit(s) through warpcc serve "
                f"(closed loop, default workers, artifact cache only)"
            )
            return outcome

        clock = harness.Clock(seconds)
        walls: List[float] = []
        steps: List[tuple] = []
        picks: Dict[str, int] = {}
        rounds = len(session.functions)
        # A new round starts only when a whole one fits at the mean pace.
        while len(walls) % rounds or clock.room_for(
            rounds * sum(walls) / max(1, len(walls)), len(walls), rounds
        ):
            target, source = session.step(len(walls))
            name = f"step{len(walls) + 1}_{target}"
            sources[name] = (source, None)
            op = (name, "edit")
            clear_phase1_cache()
            gc.collect()
            outcome.attempt(op)
            start = time.perf_counter()
            try:
                result = compiler.compile(source, "mech_eng.w2")
            except Exception as error:  # noqa: BLE001 - counted, reported
                outcome.problem(f"{harness.label(op)}: compile failed: {error!r}", op)
                walls.append(time.perf_counter() - start)
                continue
            walls.append(time.perf_counter() - start)
            picks[target] = picks.get(target, 0) + 1
            check_step(op, target, result, outcome)
            steps.append((op, harness.record(result)))
            del result
        measured = clock.elapsed()
    finally:
        pool.shutdown()
    master_mb = harness.maxrss_mb(resource.RUSAGE_SELF)
    worker_mb = harness.maxrss_mb(resource.RUSAGE_CHILDREN)

    refs = harness.references(sources)
    for op, compiled in steps:
        harness.check_against(outcome, op, compiled, refs[op[0]])

    outcome.metric("setup_s", harness.median(setups), "s")
    outcome.metric("latency_p50_s", harness.median(walls), "s")
    outcome.metric("latency_p90_s", harness.percentile(walls, 90), "s")
    outcome.metric("ops_per_s", len(walls) / measured, "1/s")
    outcome.metric("peak_rss_mb", master_mb + worker_mb, "MiB")
    outcome.row(
        f"edit_p50_s {harness.median(walls):.4f}, edit_p90_s "
        f"{harness.percentile(walls, 90):.4f} over {len(walls)} step(s) "
        f"(fewer than ten lie beyond the p90)"
    )
    outcome.row(
        "edits per function: "
        + ", ".join(f"{name} {count}" for name, count in sorted(picks.items()))
    )
    outcome.row(
        f"peak RSS: master {master_mb:.1f} MiB + largest worker {worker_mb:.1f} MiB"
    )
    return outcome

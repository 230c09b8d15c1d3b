"""``cold_build``: compile a fixed module set cold on a warm pool.

Closed loop, one client.  Each build compiles the paper's user program
(``mech_eng``), S_8(huge) and a seeded draw of medium fuzz modules
through one ``ParallelCompiler`` on a ``WarmPoolBackend`` with ``nproc``
workers and ``phase1_jobs = phase4_jobs = nproc``, with no artifact,
parse or link cache.  Every timed compile uses a filename no earlier
compile used, so neither the master's nor a worker's phase-1 memo can
serve it.
"""

from __future__ import annotations

import random
import resource
import time
from typing import Dict, List

import harness
from layers import TracedRun

FUZZ_MODULES = 4
MIN_BUILDS = 2
SETUP_REPEATS = 15


def programs(seed: int) -> List[tuple]:
    """``(name, source, inputs or None)`` for the build set."""
    from repro.workloads.synthetic import synthetic_program
    from repro.workloads.user_program import user_program

    rng = random.Random(seed)
    built = [
        ("mech_eng", user_program(), None),
        ("s8_huge", synthetic_program("huge", 8), None),
    ]
    for program in harness.fuzz_draw(rng, FUZZ_MODULES, "medium"):
        built.append((f"fuzz_{program.seed}", program.source, program.inputs()))
    return built


def new_pool(tag: str):
    """Spawn an ``nproc``-worker warm pool and run one compile through
    it; returns (pool, seconds until ready)."""
    from repro import ParallelCompiler
    from repro.parallel.warm_pool import WarmPoolBackend

    start = time.perf_counter()
    pool = WarmPoolBackend(max_workers=harness.cores())
    try:
        ParallelCompiler(backend=pool).compile(
            harness.warm_up_source(tag), f"warm_{tag}.w2"
        )
    except BaseException:
        pool.shutdown()
        raise
    return pool, time.perf_counter() - start


def setup_pool(seed: int):
    """:data:`SETUP_REPEATS` pool start-ups; keeps the last pool."""
    setups, pool = [], None
    for index in range(SETUP_REPEATS):
        if pool is not None:
            pool.shutdown()
        pool, seconds = new_pool(f"{seed}_{index}")
        setups.append(seconds)
    return pool, setups


def compiler_for(backend, _pass_name=None):
    from repro import ParallelCompiler

    jobs = harness.cores()
    return ParallelCompiler(backend=backend, phase1_jobs=jobs, phase4_jobs=jobs)


def check_cold(op: tuple, result, outcome: harness.Outcome) -> None:
    """Self-check: no phase-1 memo hit on the master, at least one
    worker-side parse, no cache touched."""
    profile = result.profile
    memo_misses = sum(f.phase1_cache_misses for f in profile.functions)
    if profile.phase1_mode == "memo" or memo_misses == 0:
        outcome.problem(
            f"self-check: {harness.label(op)} was not cold (master phase 1 "
            f"{profile.phase1_mode}, {memo_misses} worker parse(s))",
            op,
        )
    if (
        profile.artifact_cache_hits()
        or profile.artifact_cache_misses()
        or profile.parse_cache_hits
        or profile.link_cache_hits
    ):
        outcome.problem(f"self-check: {harness.label(op)} touched a cache", op)


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    from repro.driver.function_master import clear_phase1_cache

    outcome = harness.Outcome()
    set_ = programs(seed)
    sources = {name: (source, inputs) for name, source, inputs in set_}
    outcome.row(
        f"cold_build: closed loop, 1 client, {harness.cores()} warm workers; "
        f"set = {', '.join(sources)}"
    )
    pool, setups = setup_pool(seed)
    try:
        if trace:
            traced = TracedRun(pool, compiler_for, f"t{seed}")
            for name, source, inputs in set_:
                traced.compile(name, source, outcome)
            pool.shutdown()
            refs = traced.verify(outcome, sources)
            traced.report(
                outcome,
                refs,
                not_applicable={
                    name: "no compile service in this workload"
                    for name in (
                        "service.queue_wait_p50_s",
                        "service.queue_wait_p90_s",
                        "service.run_p50_s",
                        "service.pool_utilization",
                        "service.rejected",
                        "service.cache_served_ratio",
                    )
                }
                | {"loadgen.lag_p90_s": "closed loop: no arrival schedule"},
            )
            return outcome

        compiler = compiler_for(pool)
        clock = harness.Clock(seconds)
        builds: List[Dict[tuple, harness.Compiled]] = []
        walls: List[float] = []
        rows: Dict[str, List[float]] = {}
        while clock.room_for(walls[-1] if walls else 0.0, len(walls), MIN_BUILDS):
            build: Dict[tuple, harness.Compiled] = {}
            start = time.perf_counter()
            for name, source, inputs in set_:
                op = (name, f"build {len(walls) + 1}")
                clear_phase1_cache()
                began = time.perf_counter()
                outcome.attempt(op)
                try:
                    result = compiler.compile(source, f"{name}.b{len(walls)}.w2")
                except Exception as error:  # noqa: BLE001 - counted, reported
                    outcome.problem(f"{harness.label(op)}: compile failed: {error!r}", op)
                    continue
                rows.setdefault(name, []).append(time.perf_counter() - began)
                check_cold(op, result, outcome)
                build[op] = harness.record(result, keep_download=inputs is not None)
                del result
            walls.append(time.perf_counter() - start)
            builds.append(build)
        measured = clock.elapsed()
    finally:
        pool.shutdown()
    master_mb = harness.maxrss_mb(resource.RUSAGE_SELF)
    worker_mb = harness.maxrss_mb(resource.RUSAGE_CHILDREN)

    refs = harness.references(sources)
    for name, (_source, inputs) in sources.items():
        if inputs is not None:
            harness.check_fuzz(outcome, name, refs[name])
    for index, build in enumerate(builds):
        for op, compiled in build.items():
            name = op[0]
            harness.check_against(outcome, op, compiled, refs[name])
            if index < 2 and sources[name][1] is not None:
                harness.check_cycles(outcome, op, compiled, refs[name], sources[name][1])

    outcome.metric("setup_s", harness.median(setups), "s")
    outcome.metric("latency_p50_s", harness.median(walls), "s")
    outcome.metric("latency_p90_s", harness.percentile(walls, 90), "s")
    outcome.metric("ops_per_s", len(walls) / measured, "1/s")
    outcome.metric("peak_rss_mb", master_mb + worker_mb, "MiB")
    outcome.row(
        f"build_s: p50 {harness.median(walls):.4f} s over {len(walls)} "
        f"build(s); latency_p90_s is their p90 (fewer than ten lie beyond it)"
    )
    for name, times in rows.items():
        outcome.row(f"  {name:20s} wall p50 {harness.median(times):.4f} s")
    outcome.row(
        f"sim_cycles {sum(r.sim_cycles for r in refs.values())}, code_words "
        f"{sum(r.compiled.code_words for r in refs.values() if r.compiled)} "
        f"(repeat exactly across builds and the sequential compile)"
    )
    outcome.row(
        f"peak RSS: master {master_mb:.1f} MiB + largest worker {worker_mb:.1f} MiB"
    )
    return outcome

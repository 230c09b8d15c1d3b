"""Shared plumbing for the benchmark's workloads.

Everything here runs from the root of a source checkout: ``src/`` is put
on ``sys.path`` by :func:`repo_root`, scratch files live under
``.bench_tmp/`` in the checkout, and reference work runs in a small
``spawn`` process pool so it never shares state with the timed compiler.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_INTERP = ROOT / "tests" / "reference_interp.py"
SCRATCH = ROOT / ".bench_tmp"


def repo_root() -> Path:
    """Check that the checkout holds the compiler and make it importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no compiler sources under {SRC}; run from the "
            f"root of a full checkout"
        )
    if not REFERENCE_INTERP.is_file():
        raise SystemExit(
            f"perfbench: missing reference interpreter {REFERENCE_INTERP}"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT


def cores() -> int:
    return os.cpu_count() or 1


def host_facts() -> str:
    return (
        f"host: {cores()} cores, Python {platform.python_version()}, "
        f"{platform.machine()}"
    )


def scratch_dir(prefix: str) -> Path:
    """A fresh directory inside the checkout (removed by :func:`cleanup`)."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process a ``spawn`` pool starts; left
    alone it outlives the benchmark."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def maxrss_mb(who: int) -> float:
    """Peak RSS in MiB for RUSAGE_SELF or RUSAGE_CHILDREN (Linux: KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run reports: metrics plus the correctness ledger.

    An operation is one compile (or one service job), keyed ``(source
    name, instance)``; ``failed`` counts each failed operation once, however
    many problems it has."""

    ops: Set[tuple] = field(default_factory=set)
    failed_ops: Set[tuple] = field(default_factory=set)
    #: correctness-gate, self-check and determinism failures, one line each
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    #: human-readable rows printed above the JSON line
    rows: List[str] = field(default_factory=list)

    def attempt(self, op: tuple) -> None:
        self.ops.add(op)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def problem(self, text: str, op: Optional[tuple] = None) -> None:
        """Record a problem; it fails ``op`` when one is given."""
        self.problems.append(text)
        if op is not None:
            self.failed_ops.add(op)

    def source_problem(self, text: str, name: str) -> None:
        """A problem with the output for source ``name``: fails every
        operation that compiled it."""
        self.problems.append(text)
        self.failed_ops.update(op for op in self.ops if op[0] == name)

    def row(self, text: str) -> None:
        self.rows.append(text)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def correct(self) -> bool:
        return not self.problems


class Clock:
    """The run's measurement window."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def room_for(self, op_seconds: float, done: int, minimum: int) -> bool:
        """Whether another operation of about ``op_seconds`` fits."""
        if done < minimum:
            return True
        return self.elapsed() + op_seconds <= self.seconds


# ---------------------------------------------------------------------------
# Reference work: the sequential compiler, the reference interpreter and
# the simulator, in a spawn pool so the timed process stays untouched.
# ---------------------------------------------------------------------------


@dataclass
class Compiled:
    """What a workload keeps of one compile (the download itself only
    for modules it will simulate)."""

    digest_hash: str
    code_words: int
    #: (section, function) -> (ir instructions, work units) of every
    #: function in the module, as its report states them
    functions: Dict[tuple, tuple]
    download: object = None


def record(result, keep_download: bool = False) -> Compiled:
    return Compiled(
        digest_hash=text_hash(result.digest),
        code_words=result.profile.download_words,
        functions={
            (f.section_name, f.name): (f.ir_instructions, f.work_units)
            for f in result.profile.functions
        },
        download=result.download if keep_download else None,
    )


@dataclass
class Reference:
    """The sequential compiler's verdict on one source."""

    compiled: Optional[Compiled] = None
    #: (section, function) -> modulo-schedule probes
    probes: Dict[tuple, int] = field(default_factory=dict)
    #: fuzz modules only: simulated and reference outputs, cycles
    sim_outputs: Optional[list] = None
    expected_outputs: Optional[list] = None
    sim_cycles: int = 0
    error: Optional[str] = None


def _reference_worker(source: str, inputs: Optional[list]) -> Reference:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro import SequentialCompiler
    from repro.codegen import modulo
    from repro.driver import sequential

    reference = Reference()
    current = [None]
    original_probe = modulo.try_modulo_schedule
    original_compile = sequential.compile_one_function

    def counting_probe(*args, **kwargs):
        key = current[0]
        reference.probes[key] = reference.probes.get(key, 0) + 1
        return original_probe(*args, **kwargs)

    def naming_compile(parsed, section_name, function_name, *args, **kwargs):
        current[0] = (section_name, function_name)
        return original_compile(parsed, section_name, function_name, *args, **kwargs)

    modulo.try_modulo_schedule = counting_probe
    sequential.compile_one_function = naming_compile
    try:
        result = SequentialCompiler().compile(source, filename="reference.w2")
    except Exception as error:  # noqa: BLE001 - reported as a failure
        reference.error = f"{type(error).__name__}: {error}"
        return reference
    finally:
        modulo.try_modulo_schedule = original_probe
        sequential.compile_one_function = original_compile
    reference.compiled = record(result)
    if inputs is not None:
        reference.sim_outputs, reference.sim_cycles = simulate(
            result.download, inputs
        )
        reference.expected_outputs = interpret(source, inputs)
    return reference


def simulate(download, inputs: list):
    """(outputs, cycles) of a download module on the Warp simulator."""
    from repro.warpsim.array_runner import run_module

    run = run_module(download, list(inputs))
    return list(run.outputs), run.cycles


_interpret_module = None


def interpret(source: str, inputs: list, max_steps: int = 200_000) -> list:
    """Outputs of the independent reference interpreter (tests/)."""
    global _interpret_module
    if _interpret_module is None:
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "perfbench_reference_interp", REFERENCE_INTERP
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _interpret_module = module.interpret_module
    from repro.lang.diagnostics import DiagnosticSink
    from repro.lang.parser import parse_text
    from repro.lang.sema import check_module

    sink = DiagnosticSink()
    module = parse_text(source, sink)
    check_module(module, sink)
    return list(_interpret_module(module, list(inputs), max_steps))


def references(jobs: Dict[str, tuple]) -> Dict[str, Reference]:
    """Run the sequential compiler (and, where inputs are given, the
    simulator and reference interpreter) on every ``key -> (source,
    inputs or None)``, ``cores()`` processes at a time."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=cores(), mp_context=context) as pool:
        futures = {
            key: pool.submit(_reference_worker, source, inputs)
            for key, (source, inputs) in jobs.items()
        }
        return {key: future.result() for key, future in futures.items()}


def label(op: tuple) -> str:
    return f"{op[0]} ({op[1]})"


def check_against(
    outcome: Outcome,
    op: tuple,
    compiled: Compiled,
    ref: Reference,
    probes: Optional[Dict[tuple, int]] = None,
) -> None:
    """Correctness gate and determinism cross-check for one compile.

    The digest must equal the sequential compiler's; code words and the
    per-function IR size and work units must repeat exactly; ``probes``
    (functions this compile ran through codegen -> modulo probes) must
    repeat the sequential compiler's probe counts.  Problems fail ``op``."""
    name = label(op)
    if ref.error is not None:
        outcome.problem(f"{name}: sequential compile failed: {ref.error}", op)
        return
    expected = ref.compiled
    if compiled.digest_hash != expected.digest_hash:
        outcome.problem(f"{name}: digest differs from the sequential compiler's", op)
        return
    if compiled.code_words != expected.code_words:
        outcome.problem(
            f"determinism: {name} code_words {compiled.code_words} != "
            f"{expected.code_words}",
            op,
        )
    if compiled.functions != expected.functions:
        outcome.problem(
            f"determinism: {name} per-function IR instructions / work "
            f"units differ from the sequential compile",
            op,
        )
    for key, count in (probes or {}).items():
        if count != ref.probes.get(key, 0):
            outcome.problem(
                f"determinism: {name} {key[1]} made {count} modulo "
                f"probe(s), sequential {ref.probes.get(key, 0)}",
                op,
            )


def check_fuzz(outcome: Outcome, name: str, ref: Reference) -> None:
    """Simulated outputs must equal the reference interpreter's; a
    mismatch fails every compile of ``name`` (their digests all equal
    the simulated module's)."""
    if ref.error is None and ref.sim_outputs != ref.expected_outputs:
        outcome.source_problem(
            f"{name}: simulated outputs {ref.sim_outputs} != reference "
            f"{ref.expected_outputs}",
            name,
        )


def check_cycles(
    outcome: Outcome, op: tuple, compiled: Compiled, ref: Reference, inputs: list
) -> None:
    """Simulating this compile's module repeats the reference run."""
    if compiled.download is None or ref.error is not None:
        return
    outputs, cycles = simulate(compiled.download, inputs)
    if (outputs, cycles) != (ref.sim_outputs, ref.sim_cycles):
        outcome.problem(
            f"determinism: {label(op)} simulated {cycles} cycle(s), "
            f"reference run {ref.sim_cycles}",
            op,
        )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def fuzz_draw(rng, count: int, size_class: str, max_steps: int = 50_000):
    """``count`` generated modules the reference interpreter runs to
    completion within ``max_steps`` (a trap or an exhausted budget is
    outside the language corner the semantic check can judge)."""
    from repro.fuzz.generator import config_for_size_class, generate_program

    programs = []
    while len(programs) < count:
        program = generate_program(
            rng.randrange(1 << 30), config_for_size_class(size_class)
        )
        try:
            interpret(program.source, program.inputs(), max_steps)
        except Exception:  # noqa: BLE001 - trap or budget: draw again
            continue
        programs.append(program)
    return programs


def warm_up_source(tag: str) -> str:
    """A one-function module no timed compile shares."""
    return (
        f"module warm_{tag}\nsection s (cells 0..0)\n"
        f"  function f(x: float, y: float) : float\n  begin\n"
        f"    return x * 2.0 + y;\n  end\nend\nend\n"
    )

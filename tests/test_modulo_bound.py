"""The recurrence bound (RecMII) on the modulo scheduler's II search.

``find_modulo_schedule`` skips every II below RecMII without probing it.
That is sound only if no such II could pass ``try_modulo_schedule``, and
it leaves the cost figures alone only if each skipped II is charged as
the failed probe it replaces: the chosen II, the issue times and
``work_units`` must equal those of a linear search from ResMII.
"""

from pathlib import Path

import pytest

from repro.asmlink.objformat import MachineOp
from repro.codegen import compiler, modulo
from repro.codegen.modulo import (
    SchedEdge,
    find_modulo_schedule,
    recurrence_mii,
    resource_mii,
    try_modulo_schedule,
)
from repro.driver.sequential import SequentialCompiler
from repro.fuzz import config_for_size_class, generate_program
from repro.fuzz.reduce import load_corpus_entry
from repro.ir.instructions import Opcode
from repro.machine.resources import FUClass

CORPUS = sorted((Path(__file__).parent / "corpus").glob("fuzz_*.json"))
FUZZ_SEEDS = range(1, 25)


def linear_search(ops, edges, max_ii, floor=2):
    """The II search without the bound: probe every II upward from
    max(floor, ResMII, 2).  Returns (ii, times, work_units) or None."""
    work = 0
    for ii in range(max(floor, resource_mii(ops), 2), max_ii + 1):
        attempt = try_modulo_schedule(ops, edges, ii)
        if attempt is None:
            work += len(ops) * ii
            continue
        times, attempt_work = attempt
        return ii, times, work + attempt_work
    return None


def bounded_search(ops, edges, max_ii, floor=2):
    schedule = find_modulo_schedule(ops, edges, max_ii, floor)
    if schedule is None:
        return None
    return schedule.ii, schedule.times, schedule.work_units


def _op(fu: FUClass, latency: int) -> MachineOp:
    return MachineOp(op=Opcode.ADD, fu=fu, latency=latency)


class TestHandBuiltGraphs:
    def test_self_loop(self):
        ops = [_op(FUClass.FALU, 5)]
        edges = [SchedEdge(0, 0, 5, 1)]
        assert recurrence_mii(ops, edges) == 5
        assert try_modulo_schedule(ops, edges, 4) is None
        assert try_modulo_schedule(ops, edges, 5) is not None
        assert bounded_search(ops, edges, 10)[0] == 5

    def test_self_loop_spanning_two_iterations(self):
        ops = [_op(FUClass.FALU, 5)]
        edges = [SchedEdge(0, 0, 5, 2)]
        assert recurrence_mii(ops, edges) == 3  # ceil(5 / 2)
        assert try_modulo_schedule(ops, edges, 2) is None
        assert bounded_search(ops, edges, 10)[0] == 3

    def test_two_op_cycle_with_distance_two(self):
        ops = [_op(FUClass.FALU, 3), _op(FUClass.FMUL, 4)]
        edges = [SchedEdge(0, 1, 3, 0), SchedEdge(1, 0, 4, 2)]
        # Path 0 -> 1 has delay 3; closing it: 2 * II >= 3 + 4.
        assert recurrence_mii(ops, edges) == 4
        assert try_modulo_schedule(ops, edges, 3) is None
        assert bounded_search(ops, edges, 10)[0] == 4

    def test_longest_distance_zero_path_decides(self):
        ops = [_op(FUClass.IALU, 1), _op(FUClass.FALU, 3), _op(FUClass.FMUL, 1)]
        edges = [
            SchedEdge(0, 2, 1, 0),
            SchedEdge(0, 1, 1, 0),
            SchedEdge(1, 2, 3, 0),
            SchedEdge(2, 0, 1, 1),
        ]
        assert recurrence_mii(ops, edges) == 5  # 1 + 3 + 1, not 1 + 1
        assert try_modulo_schedule(ops, edges, 4) is None
        assert bounded_search(ops, edges, 10)[0] == 5

    def test_loop_without_carried_edges(self):
        ops = [_op(FUClass.FALU, 3), _op(FUClass.FMUL, 4)]
        edges = [SchedEdge(0, 1, 3, 0)]
        assert recurrence_mii(ops, edges) == 0
        assert bounded_search(ops, edges, 10) == linear_search(ops, edges, 10)
        assert bounded_search(ops, edges, 10)[0] == 2

    def test_skipped_iis_are_charged_as_failed_probes(self, monkeypatch):
        ops = [_op(FUClass.FALU, 9), _op(FUClass.FMUL, 2)]
        edges = [SchedEdge(0, 1, 9, 0), SchedEdge(0, 0, 9, 1)]
        expected = linear_search(ops, edges, 20)
        probes = []
        real = modulo.try_modulo_schedule

        def counting(*args):
            probes.append(args[2])
            return real(*args)

        monkeypatch.setattr(modulo, "try_modulo_schedule", counting)
        assert bounded_search(ops, edges, 20) == expected
        assert probes == [9]  # IIs 2..8 charged, not probed
        assert bounded_search(ops, edges, 20, floor=12)[0] == 12
        assert bounded_search(ops, edges, 8) is None


def _searches(source, monkeypatch):
    """Every II search the sequential compiler runs on ``source``, as
    (ops, edges, max_ii, floor)."""
    calls = []
    real = compiler.find_modulo_schedule

    def recording(ops, edges, max_ii, floor=2):
        calls.append((ops, edges, max_ii, floor))
        return real(ops, edges, max_ii, floor)

    monkeypatch.setattr(compiler, "find_modulo_schedule", recording)
    SequentialCompiler().compile(source, filename="bound.w2")
    monkeypatch.undo()
    return calls


def _check_searches(searches):
    """Each search: no II below the bound is feasible, and the bounded
    search equals the linear one.  Returns the IIs the bound skipped."""
    skipped = 0
    for ops, edges, max_ii, floor in searches:
        bound = recurrence_mii(ops, edges)
        expected = linear_search(ops, edges, max_ii, floor)
        # The linear search probed every II below its answer (or up to
        # max_ii) and found none feasible.
        assert expected is None or expected[0] >= bound
        assert bounded_search(ops, edges, max_ii, floor) == expected
        first = max(floor, resource_mii(ops), 2)
        skipped += max(0, min(bound, max_ii + 1) - first)
    return skipped


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_bound_is_sound_on_corpus_entries(path, monkeypatch):
    _check_searches(_searches(load_corpus_entry(path)["source"], monkeypatch))


def test_bound_is_sound_on_fuzz_modules(monkeypatch):
    config = config_for_size_class("medium")
    searches = 0
    skipped = 0
    for seed in FUZZ_SEEDS:
        found = _searches(generate_program(seed, config).source, monkeypatch)
        searches += len(found)
        skipped += _check_searches(found)
    assert searches > 0
    assert skipped > 0  # the bound did cut probes somewhere

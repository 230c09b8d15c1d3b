"""Code generation: allocation, selection, scheduling, software pipelining."""

from .compiler import RESERVED_INT_REGS, compile_function
from .modulo import (
    ModuloSchedule,
    PipelineFailure,
    PipelinedLoop,
    SchedEdge,
    emit_pipelined_loop,
    find_modulo_schedule,
    machine_schedule_edges,
    recurrence_mii,
    resource_mii,
    try_modulo_schedule,
)
from .regalloc import AllocationResult, RegisterPressureError, allocate_registers
from .schedule import ScheduleResult, schedule_block
from .select import SelectedBlock, select_function

__all__ = [
    "AllocationResult",
    "ModuloSchedule",
    "PipelineFailure",
    "PipelinedLoop",
    "RESERVED_INT_REGS",
    "RegisterPressureError",
    "SchedEdge",
    "ScheduleResult",
    "SelectedBlock",
    "allocate_registers",
    "compile_function",
    "emit_pipelined_loop",
    "find_modulo_schedule",
    "machine_schedule_edges",
    "recurrence_mii",
    "resource_mii",
    "schedule_block",
    "select_function",
    "try_modulo_schedule",
]

"""Pinned compiler output for a fixed set of modules.

Speed work on phases 2-4 (the II search, the optimizer, the phase-4
tail) must leave every byte and every cost figure as it was: the
digest is the paper's bit-identity artifact, and ``work_units`` and
the initiation intervals feed the cluster cost model.  These figures
were recorded by the sequential compiler before any such change; a
diff here means output or accounting moved, not that the pin is stale.
"""

import hashlib

import pytest

from repro.driver.sequential import SequentialCompiler
from repro.fuzz import config_for_size_class, generate_program
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program


def _sources():
    sources = {
        "mech_eng": user_program(),
        "large_4": synthetic_program("large", 4),
    }
    for seed in (11, 22, 33):
        sources[f"fuzz_medium_{seed}"] = generate_program(
            seed, config_for_size_class("medium")
        ).source
    return sources


#: name -> (sha256 of the module digest, download words,
#:          {section.function: (ir instructions, work units, IIs)})
PINS = {
    "mech_eng": (
        "89855cbaf5b3bdee782aeddf9184713ecc53e4997f111b30e58798ac2fad8a03",
        102555,
        {
            "stage1.solve_mesh": (
                1318,
                3617463,
                [
                    61, 110, 110, 94, 96, 110, 110, 94, 96, 110, 110, 94, 96,
                    110, 110, 94, 96, 110, 19
                ],
            ),
            "stage1.relax_edge": (151, 384717, [88, 110, 19]),
            "stage1.clamp_node": (179, 431829, [11, 96, 110, 19]),
            "stage2.integrate_loads": (
                1295,
                3572339,
                [
                    6, 110, 110, 94, 96, 110, 110, 94, 96, 110, 110, 94, 96,
                    110, 110, 94, 96, 110, 19
                ],
            ),
            "stage2.apply_bc": (138, 301644, [61, 110, 19]),
            "stage2.scale_forces": (158, 431051, [96, 110, 19]),
            "stage3.assemble_stiffness": (
                1367,
                3747821,
                [
                    11, 96, 110, 110, 94, 96, 110, 110, 94, 96, 110, 110, 94,
                    96, 110, 110, 94, 96, 110, 19
                ],
            ),
            "stage3.renumber": (144, 331202, [74, 110, 19]),
            "stage3.residual": (154, 376478, [83, 110, 19]),
        },
    ),
    "large_4": (
        "6df29119f0cf07c77e42091b0d7a001f895641c7675d95d4dc68ffc5799168c8",
        34440,
        {
            "sec1.f1": (
                1229,
                3325778,
                [
                    32, 110, 94, 96, 110, 110, 94, 96, 110, 110, 94, 96, 110,
                    110, 94, 96, 110, 19
                ],
            ),
            "sec1.f2": (
                1229,
                3325778,
                [
                    32, 110, 94, 96, 110, 110, 94, 96, 110, 110, 94, 96, 110,
                    110, 94, 96, 110, 19
                ],
            ),
            "sec1.f3": (
                1229,
                3325778,
                [
                    32, 110, 94, 96, 110, 110, 94, 96, 110, 110, 94, 96, 110,
                    110, 94, 96, 110, 19
                ],
            ),
            "sec1.f4": (
                1229,
                3325778,
                [
                    32, 110, 94, 96, 110, 110, 94, 96, 110, 110, 94, 96, 110,
                    110, 94, 96, 110, 19
                ],
            ),
        },
    ),
    "fuzz_medium_11": (
        "5cb2183c888e5821615abb13339cd9ed20b380b07bfb2b6a2d5b8201ab2e89b0",
        2226,
        {
            "s1.h1_1": (43, 458, []),
            "s1.h1_2": (68, 928, []),
            "s1.h1_3": (47, 10032, [37]),
            "s1.main": (229, 5092, []),
            "s2.h2_1": (25, 260, []),
            "s2.h2_2": (36, 606, []),
            "s2.h2_3": (19, 144, []),
            "s2.main": (40, 680, []),
        },
    ),
    "fuzz_medium_22": (
        "66e2ebc60869a3c804eff6417cab34a792b8193b96ef1e4a7d4e02d2cc463ec5",
        824,
        {
            "s1.h1_1": (49, 562, []),
            "s1.h1_2": (60, 679, []),
            "s1.h1_3": (44, 582, []),
            "s1.main": (283, 5805, [14]),
        },
    ),
    "fuzz_medium_33": (
        "d8b4660c6627ea3ee74a5d210ac5d5963902f1486e0901b9adc5b9443118fc21",
        984,
        {
            "s1.h1_1": (26, 283, []),
            "s1.h1_2": (38, 759, []),
            "s1.p1": (11, 87, []),
            "s1.main": (257, 5354, [6]),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_and_cost_figures_are_pinned(name):
    source = _sources()[name]
    result = SequentialCompiler().compile(source, filename=f"{name}.w2")
    digest_sha256, download_words, functions = PINS[name]
    assert hashlib.sha256(result.digest.encode()).hexdigest() == digest_sha256
    assert result.profile.download_words == download_words
    assert {
        f"{f.section_name}.{f.name}": (
            f.ir_instructions,
            f.work_units,
            list(f.initiation_intervals),
        )
        for f in result.profile.functions
    } == functions

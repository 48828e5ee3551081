"""Workloads of the overpart benchmark and the systems each seed runs.

Every workload sends the same systems through ``overpart.cli.main``
(``verify ... --output json``), one after another in one interpreter, the
way ``verify --battery`` does; the workloads differ in the checks and
truncations, and so in the layer they load.

Seed 0 runs the paper's battery.  Any other seed runs the battery and then
four systems drawn with ``random.Random(seed)``, one per battery slot:
the slot's generator count, each generator above the sum of the smaller
ones, and ``N = sum(A)`` drawn from the slot's modulus plus 4 to 7.  The
battery stays in every seed because its 3/{1,2} system carries most of the
work, so runs at different seeds cost about the same and can be compared;
the drawn systems keep a change from fitting the battery alone.
"""

from __future__ import annotations

import random

#: The paper's battery.  A copy of ``overpart.cli.BATTERY``, kept here so
#: that refactoring the package cannot change the benchmark's inputs.
BATTERY = ((3, (1, 2)), (7, (1, 2, 4)), (9, (1, 3, 5)), (15, (1, 2, 4, 8)))

#: Offsets added to each battery modulus to draw a seed's extra system.
#: Smaller moduli are far denser in admissible parts (in ``peel`` and
#: ``theorem``, 3/{1,2} alone costs more than all four drawn systems), so
#: the offsets keep the cost of the drawn systems steady across seeds.
MODULUS_OFFSETS = (4, 5, 6, 7)

#: workload -> its ``verify`` arguments; README.md says why each exists
WORKLOADS = {
    "peel": ("--checks", "lemma1,lemma2,eq357,key,rec,tmj", "--trunc", "44"),
    "theorem": ("--checks", "theorem", "--trunc", "120"),
    "chain": ("--checks", "chain", "--trunc", "56", "--x-trunc", "5"),
}

#: sha256 of the canonical stdout of ``verify --N .. --a .. <workload
#: args> --output json`` for each battery system, taken at the commit
#: that added the benchmark.  Any byte change in a verdict fails the run.
PINNED_SHA256 = {
    ("peel", 3, (1, 2)):
        "bdf11dd3f078edd08148209710dc93cd4213cf859b19ebfaba1563d1e2bc1eab",
    ("peel", 7, (1, 2, 4)):
        "be777d10ce54e589755cf85ffb6bc6e1b4ecaa95d3cdca629c76d190e03430ec",
    ("peel", 9, (1, 3, 5)):
        "0e58ba1198315c5518fe2683cc188f59664d15f88907d0c90b695dee7ac30208",
    ("peel", 15, (1, 2, 4, 8)):
        "7086ebeceed4b4895a1b93662a5eebd960004286915e86d09d57f35a677e28f7",
    ("theorem", 3, (1, 2)):
        "799f35872bca6e15fc7fb5f35f4ac5540815a532f23dc3ec9d318ef8ce3cc16e",
    ("theorem", 7, (1, 2, 4)):
        "f38430d21ca8bb55b95c4c91e66bb02ad14424731e186386ee1667ff6c7a76a7",
    ("theorem", 9, (1, 3, 5)):
        "df770c2cb80e6ef98a334b71ce0ead6d3a9dcd1169f1a054cd558262df61888a",
    ("theorem", 15, (1, 2, 4, 8)):
        "07f38209a49e2fbd2612e5f74ddf7fbd2ee07e78642b16e077ab92452149ab88",
    ("chain", 3, (1, 2)):
        "827b80b46401b8d4b4624f8e092b550bde680e4ceb2aa25ab2eddd42f396966e",
    ("chain", 7, (1, 2, 4)):
        "64e431f597653dcbe135ac3abee6752c78a0027812bf93f6ec792b5b19c1267e",
    ("chain", 9, (1, 3, 5)):
        "4daa59cfff6c5b29eaf151a0eaf292108c95aa475da0ba9af2e7b03f323aa2a5",
    ("chain", 15, (1, 2, 4, 8)):
        "ffe66c812e6ee99fada764402d6bde3ed66be803d3f89cdebf167e6750fbb333",
}


def dominated_sets(r, total):
    """Every ``A`` of ``r`` generators, each above the sum of the smaller
    ones, with ``sum(A) == total``, in lexicographic order."""
    out = []

    def extend(prefix, used):
        if len(prefix) == r:
            if used == total:
                out.append(tuple(prefix))
            return
        for x in range(used + 1, total - used + 1):
            extend(prefix + [x], used + x)

    extend([], 0)
    return out


def draw_systems(seed):
    """The ``(N, A)`` systems a run at ``seed`` verifies, in order."""
    if seed == 0:
        return BATTERY
    rng = random.Random(seed)
    drawn = []
    for N0, a0 in BATTERY:
        N = N0 + rng.choice(MODULUS_OFFSETS)
        drawn.append((N, rng.choice(dominated_sets(len(a0), N))))
    return BATTERY + tuple(drawn)


def verify_argv(workload, system):
    """``overpart`` arguments that verify one system under a workload."""
    N, a = system
    return ["verify", "--N", str(N), "--a", ",".join(map(str, a)),
            "--output", "json", *WORKLOADS[workload]]

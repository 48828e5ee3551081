"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

Traced children run at small truncations, so the file takes seconds.
"""

import hashlib

import pytest

from overpart.alpha_system import build_system

import run
from workloads import (BATTERY, MODULUS_OFFSETS, PINNED_SHA256, WORKLOADS,
                       draw_systems, verify_argv)

EXACT = ("enumeration.count_G.calls", "enumeration.count_G.distinct_share",
         "series_ring.QLaurent.mul.term_pairs", "series_ring.max_coeff_bits")


def small(checks, trunc, *extra, system=(7, (1, 2, 4))):
    N, a = system
    return ["verify", "--N", str(N), "--a", ",".join(map(str, a)),
            "--output", "json", "--checks", checks, "--trunc", str(trunc),
            *extra]


def test_seed_zero_is_the_battery():
    assert draw_systems(0) == BATTERY


@pytest.mark.parametrize("seed", [1, 2, 7, 12345])
def test_same_seed_same_systems(seed):
    assert draw_systems(seed) == draw_systems(seed)


def test_seeds_draw_different_systems():
    assert len({draw_systems(seed) for seed in range(1, 21)}) > 10


@pytest.mark.parametrize("seed", range(1, 41))
def test_drawn_systems_are_admissible(seed):
    systems = draw_systems(seed)
    assert systems[:len(BATTERY)] == BATTERY
    for (N0, a0), (N, a) in zip(BATTERY, systems[len(BATTERY):]):
        assert len(a) == len(a0)
        assert N == sum(a)
        assert N - N0 in MODULUS_OFFSETS
        build_system(a, N)


def test_every_battery_system_is_pinned():
    assert set(PINNED_SHA256) == {(w, N, a) for w in WORKLOADS
                                  for N, a in BATTERY}


def _sample(stdouts, exit_code=0):
    calls = [{"code": 0, "stdout": s} for s in stdouts]
    return run.Sample(wall_s=1.0, cpu_s=1.0, peak_rss_mib=1.0, setup_s=0.1,
                      speed=1.0, exit_code=exit_code,
                      report={"calls": calls})


def test_changed_stdout_fails_its_digest():
    system = BATTERY[1]
    good = ('{"systems":[{"checks":[{"failures":0}]}],'
            '"verdict":"pass"}\n')
    failed, why = run.count_failures("peel", [system], _sample([good]), {})
    assert failed == 1 and "sha256" in why[0]


def test_drawn_systems_must_repeat_their_stdout():
    system = (11, (1, 4, 6))
    first = '{"systems":[{"checks":[{"failures":0}]}],"verdict":"pass"}\n'
    digests = {}
    assert run.count_failures("peel", [system], _sample([first]),
                              digests) == (0, [])
    assert digests[system] == hashlib.sha256(first.encode()).hexdigest()
    changed = first.replace("pass", "pass ")
    failed, _ = run.count_failures("peel", [system], _sample([changed]),
                                   digests)
    assert failed == 1


def test_failed_check_or_crash_counts_every_system():
    failing = '{"systems":[{"checks":[{"failures":2}]}],"verdict":"fail"}\n'
    assert run.count_failures("peel", [(11, (1, 4, 6))], _sample([failing]),
                              {})[0] == 1
    assert run.count_failures("peel", BATTERY, _sample([], exit_code=1),
                              {})[0] == len(BATTERY)


def test_pinned_battery_verification_passes():
    sample = run.spawn([verify_argv("chain", BATTERY[0])])
    assert run.count_failures("chain", [BATTERY[0]], sample, {}) == (0, [])


def test_reference_slices_bracket_every_call():
    argvs = [small("tmj", 10), small("tmj", 10)]
    sample = run.spawn(argvs)
    assert len(sample.report["ref"]) == len(argvs) + 1
    assert sample.speed > 0
    assert 0 < sample.wall_s < sample.wall_s + sum(sample.report["ref"])


def test_rusage_is_per_child():
    # a running maximum over reaped children would give tiny big's peak
    big = run.spawn([small("theorem", 90, system=(3, (1, 2)))])
    tiny = run.spawn([])
    assert big.exit_code == tiny.exit_code == 0
    assert tiny.peak_rss_mib < big.peak_rss_mib


def test_exact_counters_repeat_between_traced_runs():
    argvs = [small("lemma1,lemma2,rec", 24),
             small("chain", 20, "--x-trunc", "2")]
    first, second = (run.spawn(argvs, trace=True) for _ in range(2))
    layers = [s.report["layers"] for s in (first, second)]
    assert {k: layers[0][k] for k in EXACT} == {k: layers[1][k]
                                                for k in EXACT}
    assert layers[0]["enumeration.count_G.calls"] > 0
    assert 0 < layers[0]["enumeration.count_G.distinct_share"] < 1


def test_calls_through_imported_names_are_traced():
    # cli imports count_G by name; the theorem check calls it once
    sample = run.spawn([small("theorem", 20)], trace=True)
    layers = sample.report["layers"]
    assert layers["enumeration.count_G.calls"] == 1
    assert layers["enumeration.count_G.distinct_share"] == 1.0
    assert layers["cli.self_s"] > 0
    assert layers["recurrence_engine.limit_u.total_s"] > 0

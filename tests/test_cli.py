import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from overpart import (
    NegativeExponents,
    NonUnitLeadingTerm,
    NotStabilized,
    QLaurent,
    RoundTripMismatch,
    build_system,
    cli,
    g_series,
    recurrence_engine,
    run_recurrence,
    series_ring,
    verify_eq_357,
    verify_key_lemma,
    verify_ladder,
    verify_lemma1,
    verify_lemma2,
)
from overpart.alpha_system import MAX_GENERATORS
from overpart.cli import main

from conftest import admissible_systems

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_interpreter(*args):
    """A fresh interpreter with the package on its path, output as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)


class TestCount:
    def test_side_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--N", "7", "--a", "1,2,4",
                               "--n-max", "8", "--side", "all")
        assert code == 0
        assert "verdict: pass" in out

    def test_invalid_system_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "--N", "7", "--a", "1,2,3",
                               "--n-max", "8")
        assert code == 2
        assert "collide" in err

    def test_n_max_zero(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--N", "3", "--a", "1,2",
                               "--n-max", "0", "--side", "G")
        assert code == 0
        assert "0 | 1" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--N", "7", "--a", "1,2,4",
                               "--n-max", "8", "--side", "all",
                               "--output", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "pass"
        assert obj["first_mismatch"] is None
        assert obj["F"]["rows"][8]["by_k"] == ["1", "2", "1"]
        assert obj["F"]["rows"] == obj["G"]["rows"]

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--N", "3", "--a", "1,2",
                               "--n-max", "2", "--side", "F",
                               "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k0,k1,k2"
        assert lines[-1] == "2,1,2,1"

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--N", "3", "--a", "1,2",
                               "--n-max", "2", "--side", "G",
                               "--output", "json")
        assert code == 0
        assert json.loads(out) == {"G": {
            "system": {"N": 3, "a": [1, 2]},
            "n_max": 2,
            "side": "G",
            "rows": [
                {"n": 0, "by_k": ["1", "0", "0"]},
                {"n": 1, "by_k": ["1", "1", "0"]},
                {"n": 2, "by_k": ["1", "2", "1"]},
            ],
        }}

    def test_first_mismatch_names_the_perturbed_cell(self, capsys,
                                                     monkeypatch):
        # two cells off; (k, n) = (2, 5) comes first in (n, then k) order
        real = cli.count_G

        def perturbed(sys, n_max):
            return (real(sys, n_max) + QLaurent.monomial(n_max, 5, 2)
                    + QLaurent.monomial(n_max, 6, 0))
        monkeypatch.setattr(cli, "count_G", perturbed)
        argv = ("count", "--N", "7", "--a", "1,2,4", "--n-max", "8",
                "--side", "all")
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "fail"
        assert obj["first_mismatch"] == {"k": 2, "n": 5, "F": "0", "G": "1"}
        assert obj["G"]["rows"][5]["by_k"] == ["1", "1", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert out.endswith("verdict: fail\n")
        code, _, err = run_cli(capsys, *argv, "--output", "csv")
        assert (code, err) == (1, "# verdict: fail\n")


class TestExpand:
    def test_product_table(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--what", "product",
                               "--N", "7", "--a", "1,2,4", "--trunc", "8")
        assert code == 0
        assert "q^8: 1 + 2*d + d^2" in out

    def test_gm_zero_bound_is_constant(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--what", "gm", "--m", "0",
                               "--N", "7", "--a", "1,2,4", "--trunc", "6",
                               "--output", "json")
        assert code == 0
        assert json.loads(out)["terms"] == [{"q": 0, "d": 0, "c": "1"}]

    def test_gm_requires_m(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--what", "gm",
                               "--N", "7", "--a", "1,2,4")
        assert code == 2
        assert "--m" in err

    def test_limit_json_byte_identical_to_product(self, capsys):
        _, out_prod, _ = run_cli(capsys, "expand", "--what", "product",
                                 "--N", "9", "--a", "1,3,5",
                                 "--trunc", "20", "--output", "json")
        _, out_lim, _ = run_cli(capsys, "expand", "--what", "limit",
                                "--N", "9", "--a", "1,3,5",
                                "--trunc", "20", "--output", "json")
        assert out_prod == out_lim

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "--what", "product",
                            "--N", "3", "--a", "1,2", "--trunc", "4",
                            "--output", "json")
        obj = json.loads(out)
        assert out == json.dumps(obj, sort_keys=True,
                                 separators=(",", ":")) + "\n"


#: sha256 of the stdout of each command run on the battery systems in turn
PINNED_FORMATS = {
    ("count", "--side", "all", "--n-max", "30", "--output", "json"):
        "f9a85e506adc35f6c63617fadd56da3a17864adfa1f70aa9739211e5eb93995e",
    ("count", "--side", "all", "--n-max", "30", "--output", "csv"):
        "373f3aaa2f5a6bfb3b137ed3416ca933583f47923198cbc67c4e637170b6636c",
    ("count", "--side", "all", "--n-max", "30", "--output", "table"):
        "d58ce8ae4dfb12879533b0ceebdd7712a026a8c583dd3a64fb876eea5f2854ff",
    ("count", "--side", "G", "--n-max", "30", "--output", "csv"):
        "97996bb33950fd13cf3ad7e856d2081b25faa9234976f0b5c97969a4a6b8a231",
    ("count", "--side", "G", "--n-max", "80", "--output", "json"):
        "50eb2183d78fc8528ff1b99cea50b8f95f9a582f1d547931dd8215e947548f2c",
    # counts up to 40 bits on 3/{1,2}, in 55-bit slots while packed
    ("count", "--side", "all", "--n-max", "200", "--output", "json"):
        "a1a04844115786c3da21cbcc85f15ca902177c43f2e7420feb078023c52abd6d",
    ("expand", "--what", "product", "--trunc", "30", "--output", "table"):
        "3d56a823db86ee1f8d394dbf471ebb5f5af05dd09caff8da4e2c675a2c2857f0",
    ("expand", "--what", "gm", "--m", "20", "--trunc", "30",
     "--output", "table"):
        "f65a2c5faad895892ff4c6d5d87d7497fddbbd0e8e051408adf0a9f05ca014a3",
    ("expand", "--what", "gm", "--m", "50", "--trunc", "60",
     "--output", "json"):
        "6ebb2e0d6558c2a2e73b165a79f57c2aefcb03b1a3bbd3efe67c051fbef5b755",
    # the ladder's top rung at theorem's truncation, read through the
    # guard-bit table: every count, so it equals the product
    ("expand", "--what", "gm", "--m", "120", "--trunc", "120",
     "--output", "json"):
        "57d5afae9a05c661b0cbe1e3a5f998248be676cdcc6f4859efcdaecbdd862664",
    ("expand", "--what", "limit", "--trunc", "30", "--output", "json"):
        "1f9d20bf45bbb1500fbe22265bd598651fbc4a86244fdaebeb08ca428e53849b",
    # coefficients up to 29 bits on 3/{1,2}; the product equals the limit
    ("expand", "--what", "product", "--trunc", "120", "--output", "json"):
        "57d5afae9a05c661b0cbe1e3a5f998248be676cdcc6f4859efcdaecbdd862664",
    ("expand", "--what", "limit", "--trunc", "120", "--output", "json"):
        "57d5afae9a05c661b0cbe1e3a5f998248be676cdcc6f4859efcdaecbdd862664",
    ("expand", "--what", "limit", "--trunc", "200", "--output", "json"):
        "db266dcf64c5ceddf60bfb00b0fa536a2ac8ab5419a474c638e9232c92c93817",
    # the recurrence at depth, where its packed ints are largest
    ("expand", "--what", "limit", "--trunc", "300", "--output", "json"):
        "7c6293a45b563c5f1053505acadeb9cefcef2978fa9f1f936614dbdcf20a57f1",
    ("verify", "--checks", "lemma1,lemma2,eq357,key,rec,tmj", "--trunc", "30",
     "--output", "json"):
        "c934a440971e91b4b25016485f79ad5c765fee3f3adbd554ce9c2c0e3a9656f8",
    ("verify", "--checks", "lemma1,lemma2,eq357,key,rec,tmj", "--trunc", "60",
     "--output", "json"):
        "3c82f8c8dfeff6f0ea4b87c38b2df5415d677be8567497d13bea87bff8228075",
    # past the benchmark's trunc 44: where the ladder checks' window of
    # rungs drops the most of the ladder
    ("verify", "--checks", "lemma1,lemma2,eq357,key,rec,tmj", "--trunc", "120",
     "--output", "json"):
        "86ccca12656650862a6d35f447068d54d4eb4e1b3a407c9d24419bf14c164e10",
    ("verify", "--checks", "chain", "--trunc", "30", "--x-trunc", "4",
     "--output", "json"):
        "cf706709ee23ac5f40b445e15faaf2520f162e8934f5a5f7d999927ba9530b2b",
    # ell-max past x-trunc: eq covers x^0..x^3 and rec_prime ell 1..9
    ("verify", "--checks", "chain", "--trunc", "30", "--x-trunc", "3",
     "--ell-max", "9", "--output", "json"):
        "2b31bd97ecc2a4aa1f7fefd3db168035923cd2e40b905f38abe1f9051586e0cd",
    # the benchmark's chain workload
    ("verify", "--checks", "chain", "--trunc", "56", "--x-trunc", "5",
     "--output", "json"):
        "6ea662f15b25779a458588ab9f2b8dc6ba29ee7bc74944c0a60259c8c8429958",
    # the chain at a larger depth: its quotients take slots of up to 28 bits
    ("verify", "--checks", "chain", "--trunc", "80", "--x-trunc", "7",
     "--output", "json"):
        "6f4fb472baa6aaf4cc0cc21ccd2f9edc00d52ec201513143d80d10677c37a153",
    # full x-coverage: mu_limit compares up to q^60 on every system, as
    # x_trunc N - a(1) >= 60 (3/{1,2} needs x_trunc >= 21)
    ("verify", "--checks", "chain", "--trunc", "60", "--x-trunc", "21",
     "--output", "json"):
        "a6f30e03a6923e7274c6792b1ccab83a36a76921102a546bc255f03c7a52dc7f",
    # one row per pass, and mu_limit has nothing to compare
    ("verify", "--checks", "chain", "--trunc", "40", "--x-trunc", "0",
     "--output", "json"):
        "e753373437af7cbecbc6d6b7cc07e5df9993f3e45dc25dbbe32bfb28771e36ce",
}


@pytest.mark.parametrize("argv", PINNED_FORMATS, ids=" ".join)
def test_count_and_expand_output_is_pinned(capsys, argv):
    digest = hashlib.sha256()
    for N, a in cli.BATTERY:
        code, out, _ = run_cli(capsys, *argv, "--N", str(N),
                               "--a", ",".join(map(str, a)))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == PINNED_FORMATS[argv]


def test_five_generator_verify_output_is_pinned(capsys):
    # r = 5, past the battery: the widest table of weight pairs, where
    # most pairs with m + j > k are the zero series
    code, out, _ = run_cli(capsys, "verify", "--N", "31", "--a", "1,2,4,8,16",
                           "--checks", "lemma1,lemma2,eq357,key,rec,tmj,chain",
                           "--trunc", "40", "--x-trunc", "3",
                           "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "53b951b3e06e91ce230b69c8ddf96757ce49e745ff820b8b537e95fb0df138c3")


class TestVerify:
    def test_selected_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "7", "--a", "1,2,4",
                               "--trunc", "25", "--checks", "theorem,tmj")
        assert code == 0
        assert "theorem  pass" in out
        assert "tmj      pass" in out

    def test_theorem_at_default_depth(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "7", "--a", "1,2,4",
                               "--trunc", "40", "--checks", "theorem")
        assert code == 0
        assert "verdict: pass" in out

    def test_theorem_fails_on_a_perturbed_count(self, capsys, monkeypatch):
        real = cli.count_G
        monkeypatch.setattr(cli, "count_G", lambda sys, n_max, width: [
            c + (n == 5 and 1 << 2 * width)
            for n, c in enumerate(real(sys, n_max, width=width))])
        code, out, _ = run_cli(capsys, "verify", "--N", "7", "--a", "1,2,4",
                               "--trunc", "8", "--checks", "theorem",
                               "--output", "json")
        assert code == 1
        check = json.loads(out)["systems"][0]["checks"][0]
        assert (check["failures"], check["first_failure"]) \
            == (1, "count_F == count_G")

    def test_passing_theorem_reads_nothing_back(self, capsys, monkeypatch):
        # every side is compared packed at one width, and the trunc-0
        # weight pairs of the recurrence's rows are multiplied unpacked
        real = QLaurent._from_packed.__func__
        truncs = []

        def spy(cls, trunc, items, width):
            truncs.append(trunc)
            return real(cls, trunc, items, width)
        monkeypatch.setattr(QLaurent, "_from_packed", classmethod(spy))
        code, out, _ = run_cli(capsys, "verify", "--battery", "--checks",
                               "theorem", "--trunc", "40", "--output", "json")
        assert (code, json.loads(out)["verdict"]) == (0, "pass")
        assert truncs == []

    def test_passing_rec_reads_nothing_back(self, capsys, monkeypatch):
        # each iterate is compared with its rung as a row at the ladder's
        # width, so neither side is read back into a series
        read = []
        real_from_packed = QLaurent._from_packed.__func__

        def spy(cls, trunc, items, width):
            read.append("_from_packed")
            return real_from_packed(cls, trunc, items, width)
        monkeypatch.setattr(QLaurent, "_from_packed", classmethod(spy))
        monkeypatch.setattr(recurrence_engine, "g_series",
                            _raiser(AssertionError))
        code, out, _ = run_cli(capsys, "verify", "--battery", "--checks",
                               "rec", "--trunc", "44", "--output", "json")
        assert (code, json.loads(out)["verdict"]) == (0, "pass")
        assert read == []

    def test_passing_chain_reads_nothing_back(self, capsys, monkeypatch):
        # mu is compared with the reduced system's iterates and product as
        # rows at the run's one width, so nothing is read back into a series
        read = []
        real_from_packed = QLaurent._from_packed.__func__

        def spy(cls, trunc, items, width):
            read.append(trunc)
            return real_from_packed(cls, trunc, items, width)
        monkeypatch.setattr(QLaurent, "_from_packed", classmethod(spy))
        monkeypatch.setattr(recurrence_engine, "run_recurrence",
                            _raiser(AssertionError))
        code, out, _ = run_cli(capsys, "verify", "--battery", "--checks",
                               "chain", "--trunc", "56", "--x-trunc", "5",
                               "--output", "json")
        assert (code, json.loads(out)["verdict"]) == (0, "pass")
        assert read == []

    @pytest.mark.parametrize("plant", [False, True], ids=["pass", "planted"])
    def test_rec_builds_its_ladder_at_the_iterates_width(
            self, capsys, monkeypatch, plant):
        # the sweep builds its ladder at whatever width the iterates come
        # out at, so iterates wider than usual still compare as ints, with
        # the same cases and failures, and nothing is read back
        if plant:
            monkeypatch.setattr(recurrence_engine._Ladder, "rung",
                                _planted_rung(recurrence_engine._Ladder.rung))
        argv = ("verify", "--battery", "--checks", "rec", "--trunc", "44",
                "--output", "json")
        code, want, _ = run_cli(capsys, *argv)
        assert (code, json.loads(want)["verdict"]) \
            == ((1, "fail") if plant else (0, "pass"))
        real = recurrence_engine._iterates
        floors, widths = [], []

        def wider(sys, trunc, steps, floor):
            floors.append(floor + 5)
            for u, width in real(sys, trunc, steps, floor=floor + 5):
                widths.append(width - floor)
                yield u, width
        monkeypatch.setattr(recurrence_engine, "_iterates", wider)
        real_init = recurrence_engine._Ladder.__init__
        ladders = []

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            ladders.append(self.width)
        monkeypatch.setattr(recurrence_engine._Ladder, "__init__", init)
        read = []
        real_from_packed = QLaurent._from_packed.__func__

        def spy(cls, *args):
            read.append("_from_packed")
            return real_from_packed(cls, *args)
        monkeypatch.setattr(QLaurent, "_from_packed", classmethod(spy))
        monkeypatch.setattr(recurrence_engine, "g_series",
                            lambda *args: read.append("g_series"))
        assert run_cli(capsys, *argv)[:2] == (code, want)
        assert len(widths) == sum(c["cases"]
                                  for s in json.loads(want)["systems"]
                                  for c in s["checks"])
        assert set(widths) == {5}
        assert ladders == floors and len(floors) == len(cli.BATTERY)
        assert read == []

    @pytest.mark.parametrize("plant", [False, True], ids=["pass", "planted"])
    def test_lemma1_and_lemma2_share_one_residual_per_case(
            self, capsys, monkeypatch, plant):
        # lemma2's row at each (j, m) is computed once, and lemma1, lemma2
        # and eq357's sums all read it, so their order changes nothing but
        # the order of the checks
        if plant:
            monkeypatch.setattr(recurrence_engine._Ladder, "rung",
                                _planted_rung(recurrence_engine._Ladder.rung))
        real = recurrence_engine._peel_row
        rows = []

        def spy(ladder, j, m):
            rows.append((ladder.sys.N, ladder.sys.a, j, m))
            return real(ladder, j, m)
        monkeypatch.setattr(recurrence_engine, "_peel_row", spy)
        outs = {}
        for checks in ("lemma1,lemma2", "lemma2,lemma1",
                       "lemma2,eq357,lemma1"):
            rows.clear()
            code, out, _ = run_cli(capsys, "verify", "--battery", "--checks",
                                   checks, "--trunc", "30", "--output", "json")
            assert code == (1 if plant else 0)
            obj = json.loads(out)
            for entry in obj["systems"]:
                assert ",".join(c["name"] for c in entry["checks"]) == checks
                entry["checks"] = sorted(
                    (c for c in entry["checks"] if c["name"] != "eq357"),
                    key=lambda c: c["name"])
                first, second = entry["checks"]
                assert {**first, "name": ""} == {**second, "name": ""}
            cases = [s["checks"][0]["cases"] for s in obj["systems"]]
            assert len(rows) == len(set(rows)) == sum(cases)
            outs[checks] = obj
        assert outs["lemma1,lemma2"] == outs["lemma2,lemma1"] \
            == outs["lemma2,eq357,lemma1"]
        failures = [c["failures"] for s in outs["lemma1,lemma2"]["systems"]
                    for c in s["checks"]]
        assert (sum(failures) > 0) == plant

    @pytest.mark.parametrize("side, failures, first", [
        ("count_F", 2, "count_F == count_G"),
        ("product_F", 2, "count_F == product"),
        ("limit_u", 1, "product == limit"),
    ])
    def test_theorem_names_a_planted_cell(self, capsys, monkeypatch, side,
                                          failures, first):
        # one more overpartition of 5 with two plain parts on one side (on
        # count_G's, test_theorem_fails_on_a_perturbed_count)
        real = getattr(cli, side)

        def planted(sys, trunc, **packing):
            got = real(sys, trunc, **packing)
            if side == "limit_u":
                got, width = got
            else:
                width = packing["width"]
            rows = [c + (n == 5 and 1 << 2 * width) for n, c in enumerate(got)]
            return (rows, width) if side == "limit_u" else rows
        monkeypatch.setattr(cli, side, planted)
        code, out, _ = run_cli(capsys, "verify", "--N", "7", "--a", "1,2,4",
                               "--trunc", "8", "--checks", "theorem",
                               "--output", "json")
        assert code == 1
        check = json.loads(out)["systems"][0]["checks"][0]
        assert (check["failures"], check["first_failure"]) \
            == (failures, first)

    def test_residual_checks_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "3", "--a", "1,2",
                               "--trunc", "12",
                               "--checks", "lemma1,lemma2,eq357,key,rec",
                               "--output", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "pass"
        checks = {c["name"]: c for c in obj["systems"][0]["checks"]}
        assert set(checks) == {"lemma1", "lemma2", "eq357", "key", "rec"}
        assert all(c["failures"] == 0 for c in checks.values())
        assert all(c["cases"] > 0 for c in checks.values())

    def test_chain_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "3", "--a", "1,2",
                               "--trunc", "15", "--x-trunc", "5",
                               "--checks", "chain", "--output", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["systems"][0]["checks"][0]["failures"] == 0

    def test_battery_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--battery", "--trunc",
                               "16", "--checks", "theorem,tmj",
                               "--output", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "pass"
        assert [e["system"]["N"] for e in obj["systems"]] == [3, 7, 9, 15]

    def test_unknown_check_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--N", "3", "--a", "1,2",
                               "--checks", "conjecture")
        assert code == 2
        assert "unknown check" in err

    def test_requires_system_or_battery(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "tmj")
        assert code == 2
        assert "battery" in err

    def test_invalid_system_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--N", "6", "--a", "1,2,4",
                             "--checks", "tmj")
        assert code == 2

    @pytest.mark.parametrize("checks", ["theorem", "rec", "chain"])
    @pytest.mark.parametrize("flag", ["--trunc", "--x-trunc"])
    def test_negative_truncation_names_the_flag(self, capsys, checks, flag):
        code, out, err = run_cli(capsys, "verify", "--N", "7", "--a",
                                 "1,2,4", "--checks", checks, flag, "-1")
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be non-negative\n"

    @pytest.mark.parametrize("what", ["product", "limit", "gm"])
    def test_expand_negative_truncation_names_the_flag(self, capsys, what):
        code, out, err = run_cli(capsys, "expand", "--N", "7", "--a",
                                 "1,2,4", "--what", what, "--m", "5",
                                 "--trunc", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --trunc must be non-negative\n"

    def test_negative_n_max_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "count", "--N", "7", "--a", "1,2,4",
                                 "--n-max", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --n-max must be non-negative\n"

    @pytest.mark.parametrize("ell_max", ["2", "-1"])
    def test_short_ell_max_names_the_flag(self, capsys, ell_max):
        code, out, err = run_cli(capsys, "verify", "--N", "7", "--a",
                                 "1,2,4", "--checks", "chain", "--x-trunc",
                                 "4", "--ell-max", ell_max)
        assert (code, out) == (2, "")
        assert err == "error: --ell-max must be at least --x-trunc\n"

    def test_missing_modulus_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--a", "1,2")
        assert code == 2
        assert out == ""
        assert err == "error: modulus must be positive\n"

    def test_chain_failure_names_first_offender(self, capsys, monkeypatch):
        # one extra 1 on the left side of T(1, 2) first shows at ell = 2
        real = recurrence_engine._tmj

        def bad_tmj(sys, m, j):
            lhs, rhs = real(sys, m, j)
            if (m, j) == (1, 2):
                lhs = {**lhs, (0, 0): lhs.get((0, 0), 0) + 1}
            return lhs, rhs
        monkeypatch.setattr(recurrence_engine, "_tmj", bad_tmj)
        code, out, err = run_cli(capsys, "verify", "--N", "3", "--a", "1,2",
                                 "--trunc", "20", "--x-trunc", "5",
                                 "--checks", "chain", "--output", "json")
        assert code == 1
        assert err == ""
        check = json.loads(out)["systems"][0]["checks"][0]
        assert check["failures"] == 1
        assert check["first_failure"] \
            == "stage rec_prime: first offender (2, 6, 0, -1)"


class TestOneGeneratorAtModulus:
    """One generator with ``N = a(1)`` lies outside the peeling and
    recurrence identities: their checks exit 2, while the counts, the
    product, ``g_m`` and ``T(m, j)`` still work."""

    @pytest.mark.parametrize("N,checks", [
        (2, "theorem"), (3, "rec"), (3, "lemma1"), (3, "lemma2"),
        (3, "eq357"), (3, "key")])
    def test_ladder_checks_exit_2(self, capsys, N, checks):
        code, out, err = run_cli(capsys, "verify", "--N", str(N), "--a",
                                 str(N), "--checks", checks, "--trunc", "12")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: N = a(1) = {N} lies outside")

    @pytest.mark.parametrize("checks", [
        "tmj,lemma1", "lemma1,tmj", "rec", "key,tmj,rec"])
    def test_ladder_error_comes_where_the_first_ladder_check_is_listed(
            self, capsys, monkeypatch, checks):
        # the ladder checks run together where the first of them is listed,
        # so a tmj listed before them runs first and one listed after them
        # does not run; whichever ladder check meets the domain first
        # raises the same error
        ran = []
        real = cli.verify_Tmj
        monkeypatch.setattr(cli, "verify_Tmj",
                            lambda *args: ran.append(args) or real(*args))
        code, out, err = run_cli(capsys, "verify", "--N", "2", "--a", "2",
                                 "--checks", checks, "--trunc", "12")
        assert (code, out) == (2, "")
        assert err == ("error: N = a(1) = 2 lies outside the peeling and "
                       "recurrence identities, which need N > a(r)\n")
        assert bool(ran) == checks.startswith("tmj")

    def test_theorem_rejects_the_system_before_counting(self, capsys,
                                                        monkeypatch):
        # limit_u runs first and raises the ladder's domain error itself
        for name in ("count_F", "count_G", "product_F"):
            monkeypatch.setattr(cli, name, _raiser(AssertionError(name)))
        code, out, err = run_cli(capsys, "verify", "--N", "2", "--a", "2",
                                 "--checks", "theorem", "--trunc", "200")
        assert (code, out) == (2, "")
        assert err == ("error: N = a(1) = 2 lies outside the peeling and "
                       "recurrence identities, which need N > a(r)\n")
        assert not hasattr(cli, "_require_ladder_domain")

    @pytest.mark.parametrize("argv", [
        ("count", "--n-max", "12"),
        ("expand", "--what", "product", "--trunc", "12"),
        ("expand", "--what", "gm", "--m", "9", "--trunc", "12"),
        ("verify", "--checks", "tmj"),
    ])
    def test_counts_product_gm_and_tmj_still_work(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--N", "3", "--a", "3")
        assert (code, err) == (0, "")
        assert out


@settings(max_examples=30, deadline=None)
@given(admissible_systems(), st.integers(0, 20))
def test_ladder_checks_on_drawn_systems(system, trunc):
    N, a = system
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--N", str(N), "--a", ",".join(map(str, a)),
                     "--checks", "lemma1,lemma2,eq357,key,rec,tmj",
                     "--trunc", str(trunc), "--output", "json"])
    if N == a[-1]:
        assert (code, out.getvalue()) == (2, "")
    else:
        assert code == 0
        assert json.loads(out.getvalue())["verdict"] == "pass"


LADDER_SYSTEMS = {"battery": ("--battery", "--trunc", "30"),
                  "r5": ("--N", "31", "--a", "1,2,4,8,16", "--trunc", "40")}


@pytest.mark.parametrize("plant", [False, True], ids=["pass", "planted"])
@pytest.mark.parametrize("system", LADDER_SYSTEMS.values(),
                         ids=LADDER_SYSTEMS)
def test_ladder_checks_read_alike_alone_and_together(capsys, monkeypatch,
                                                     system, plant):
    # the ladder checks run in one sweep over j, and each check's entry is
    # still the one it has when it runs alone, in any order
    if plant:
        monkeypatch.setattr(recurrence_engine._Ladder, "rung",
                            _planted_rung(recurrence_engine._Ladder.rung))

    def run(checks):
        code, out, _ = run_cli(capsys, "verify", *system, "--checks", checks,
                               "--output", "json")
        return code, json.loads(out)["systems"]
    alone = {name: run(name) for name in ("lemma1", "lemma2", "eq357", "key",
                                          "rec")}
    assert any(code for code, _ in alone.values()) == plant
    for checks in ("eq357,lemma2", "key,rec,lemma1", "rec,eq357,key,lemma2"):
        names = checks.split(",")
        code, systems = run(checks)
        assert code == max(alone[name][0] for name in names)
        for i, entry in enumerate(systems):
            assert entry["checks"] == [alone[name][1][i]["checks"][0]
                                       for name in names]


LADDER_RUNS = {"battery": [(build_system(a, N), 30) for N, a in cli.BATTERY],
               "r5": [(build_system((1, 2, 4, 8, 16), 31), 40)]}


@pytest.mark.parametrize("plant", [False, True], ids=["pass", "planted"])
@pytest.mark.parametrize("system", LADDER_RUNS, ids=LADDER_RUNS)
def test_the_sweep_agrees_with_the_public_views(monkeypatch, system, plant):
    # each case of the sweep passes iff the QLaurent view of its identity
    # is zero, and each rec case iff run_recurrence's iterate is g_series'
    if plant:
        monkeypatch.setattr(recurrence_engine._Ladder, "rung",
                            _planted_rung(recurrence_engine._Ladder.rung))
    names = ("lemma1", "lemma2", "eq357", "key", "rec")
    failures = 0
    for sys_, trunc in LADDER_RUNS[system]:
        swept = verify_ladder(sys_, trunc, names)
        assert list(swept) == list(names)
        us = run_recurrence(sys_, len(swept["rec"]) - 1, trunc)
        for name, cases in swept.items():
            assert cases
            for label, ok in cases:
                kind, _, at = label.rpartition(" ")
                at = {key: int(value) for key, value in
                      (pair.split("=") for pair in at.split(","))}
                if name == "lemma1":
                    want = verify_lemma1(sys_, at["j"], at["m"], trunc) == []
                elif name == "lemma2":
                    want = verify_lemma2(sys_, at["j"], at["m"],
                                         trunc).is_zero()
                elif name == "eq357":
                    total, contraction = verify_eq_357(sys_, at["j"],
                                                       at["k"], trunc)
                    want = (total if kind == "sum"
                            else contraction).is_zero()
                elif name == "key":
                    want = verify_key_lemma(sys_, at["k"], at["ell"],
                                            trunc).is_zero()
                else:
                    m = at["ell"] * sys_.N - sys_.a[0]
                    want = us[at["ell"]] == g_series(sys_, m, trunc)
                assert ok == want, (sys_, name, label)
                failures += not ok
    assert bool(failures) == plant


def test_the_sweep_keeps_a_window_of_rungs(capsys, monkeypatch):
    # no case after step j reads a bound at or below (j - r)N, and the
    # sweep holds no rung of one; on 3/{1,2} every size is admissible, so
    # rung m is g_m, and reading a released one raises
    N, r, trunc = 3, 2, 120
    real = recurrence_engine._Ladder.release
    held = []

    def release(self, bound):
        real(self, bound)
        j = len(held) + 1
        assert bound == (j - r) * N
        kept = [m for m, rung in enumerate(self._series) if rung is not None]
        assert self._sizes[:len(self._series) - 1] == list(
            range(1, len(self._series)))
        assert min(kept) > bound, (j, kept)
        for m in range(1, bound + 1):
            with pytest.raises(LookupError):
                self.rung(m)
        assert self.rung(-N) == (-1 << self.width,) + (0,) * trunc
        held.append(len(kept))
    monkeypatch.setattr(recurrence_engine._Ladder, "release", release)
    code, out, _ = run_cli(capsys, "verify", "--N", str(N), "--a", "1,2",
                           "--checks", "lemma1,lemma2,eq357,key,rec",
                           "--trunc", str(trunc), "--output", "json")
    assert (code, json.loads(out)["verdict"]) == (0, "pass")
    assert len(held) == trunc // N + 1
    # the bounds in ((j - r)N, jN) and the last rung built
    assert max(held) <= (r + 1) * N


def _raiser(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _planted_rung(real):
    """``_Ladder.rung`` with one more overpartition of 12 with no plain
    part in ``g_11``, which the ladder checks on 3/{1,2} read."""
    def rung(self, m):
        rows = real(self, m)
        return rows[:12] + (rows[12] + 1,) + rows[13:] if m == 11 else rows
    return rung


class TestExitCodes:
    """Mathematical failures exit 1 with an ``error:`` line; bad input 2."""

    @pytest.mark.parametrize("exc", [
        NonUnitLeadingTerm("divisor has no unit constant term"),
        NotStabilized("coefficients still moving"),
    ])
    def test_limit_failures_exit_1(self, capsys, monkeypatch, exc):
        monkeypatch.setattr(cli, "limit_u", _raiser(exc))
        code, out, err = run_cli(capsys, "verify", "--N", "3", "--a", "1,2",
                                 "--trunc", "6", "--checks", "theorem")
        assert code == 1
        assert out == ""
        assert err == f"error: {exc}\n"
        code, _, err = run_cli(capsys, "expand", "--what", "limit",
                               "--N", "3", "--a", "1,2", "--trunc", "6")
        assert code == 1
        assert err == f"error: {exc}\n"

    @pytest.mark.parametrize("exc", [
        NegativeExponents("recurrence produced negative exponents"),
        NonUnitLeadingTerm("divisor has no unit constant term"),
    ])
    def test_recurrence_failures_exit_1(self, capsys, monkeypatch, exc):
        monkeypatch.setattr(recurrence_engine, "_iterates", _raiser(exc))
        code, _, err = run_cli(capsys, "verify", "--N", "7", "--a", "1,2,4",
                               "--trunc", "10", "--checks", "rec",
                               "--output", "json")
        assert code == 1
        assert err == f"error: {exc}\n"

    def test_chain_round_trip_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_chain", _raiser(
            RoundTripMismatch("x-product division failed to invert")))
        code, _, err = run_cli(capsys, "verify", "--N", "3", "--a", "1,2",
                               "--trunc", "10", "--checks", "chain")
        assert code == 1
        assert err.startswith("error: x-product")

    def test_input_errors_still_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--what", "gm", "--m", "-99",
                               "--N", "7", "--a", "1,2,4")
        assert code == 2
        assert err.startswith("error: ")
        code, out, err = run_cli(capsys, "expand", "--N", "7", "--a", "1,2,4",
                                 "--trunc", "-1", "--output", "json")
        assert (code, out) == (2, "")
        assert err == "error: --trunc must be non-negative\n"
        code, out, err = run_cli(capsys, "verify", "--N", "7", "--a", "1,2,4",
                                 "--checks", ",", "--output", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error: no check given; choose from lemma1,")


def test_ladder_cache_lives_for_one_command(capsys):
    recurrence_engine._ladder.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["verify", "--N", "3", "--a", "1,2", "--checks",
                     "lemma2,rec", "--trunc", "44", "--output", "json"])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert recurrence_engine._ladder.cache_info().currsize == 0
    # the 3/{1,2} ladder at trunc 44 alone holds about 2 MiB
    assert held < 2**19, held


@pytest.mark.parametrize("code,argv", [
    (0, ("--N", "7", "--a", "1,2,4", "--checks", "chain", "--trunc", "40",
         "--x-trunc", "8")),
    (2, ("--N", "2", "--a", "2", "--checks", "tmj,lemma1")),
], ids=["chain", "error"])
def test_gauss_coefficients_live_for_one_command(capsys, monkeypatch, code,
                                                 argv):
    # the Gaussian binomials' table is unbounded; the chain and the weight
    # pairs fill it, and it must not outlive the command that filled it
    table = series_ring._gauss_coeffs
    filled = []

    def clear(real=table.cache_clear):
        filled.append(table.cache_info().currsize)
        real()
    monkeypatch.setattr(table, "cache_clear", clear)
    assert run_cli(capsys, "verify", *argv, "--output", "json")[0] == code
    assert filled[0] > 0
    assert table.cache_info().currsize == 0


def test_each_weight_pair_is_built_once_per_command(capsys, monkeypatch):
    real = recurrence_engine._weight_pair
    built = []

    def counted(sys, k, m, j):
        built.append((sys.N, sys.a, k, m, j))
        return real(sys, k, m, j)
    monkeypatch.setattr(recurrence_engine, "_weight_pair", counted)
    recurrence_engine._weight_pairs.cache_clear()
    code, out, _ = run_cli(capsys, "verify", "--battery", "--checks",
                           "key,rec,tmj,chain,theorem", "--trunc", "30",
                           "--x-trunc", "3", "--output", "json")
    assert (code, json.loads(out)["verdict"]) == (0, "pass")
    assert built and len(set(built)) == len(built)
    assert recurrence_engine._weight_pairs.cache_info().currsize == 0
    assert recurrence_engine._ladder.cache_info().currsize == 0
    # theorem reads only the recurrence's pairs, r(r+1)/2 per system
    built.clear()
    code, _, _ = run_cli(capsys, "verify", "--battery", "--checks",
                         "theorem", "--trunc", "30", "--output", "json")
    assert (code, len(built)) == (0, 25)


def test_each_f_is_built_once_per_command(capsys, monkeypatch):
    # both sides of every T(m, j) read f(m, k) off one table per system, in
    # the tmj check and the chain alike
    real = recurrence_engine._coeff_f
    built = []

    def counted(sys, m, k):
        built.append((sys.N, tuple(sys.a), m, k))
        return real(sys, m, k)
    monkeypatch.setattr(recurrence_engine, "_coeff_f", counted)
    recurrence_engine._weight_pairs.cache_clear()
    code, out, _ = run_cli(capsys, "verify", "--battery", "--checks",
                           "tmj,chain", "--trunc", "30", "--x-trunc", "3",
                           "--output", "json")
    assert (code, json.loads(out)["verdict"]) == (0, "pass")
    # f(m, k) for 1 <= m <= r, 0 <= k < m: r(r+1)/2 per system
    assert len(set(built)) == len(built) == 3 + 6 + 6 + 10
    assert recurrence_engine._weight_pairs.cache_info().currsize == 0


def test_no_command_multiplies_series(capsys, monkeypatch):
    # the chain's trunc-0 coefficient families (the weight pairs, f(m, k)
    # and the T(m, j) sides) are {(e, k): c} maps multiplied by
    # series_ring._mul_maps, and every long run packs its rows at one width
    # of its own and calls the row kernels itself: no QLaurent product
    real = QLaurent.__mul__
    products = []

    def spy(self, other):
        products.append((self, other))
        return real(self, other)
    monkeypatch.setattr(QLaurent, "__mul__", spy)
    monkeypatch.setattr(QLaurent, "__rmul__", spy)
    code, out, _ = run_cli(capsys, "verify", "--battery", "--checks",
                           ",".join(cli.ALL_CHECKS), "--trunc", "30",
                           "--x-trunc", "3", "--output", "json")
    assert (code, json.loads(out)["verdict"]) == (0, "pass")
    for what in ("limit", "product", "gm"):
        code, _, _ = run_cli(capsys, "expand", "--N", "7", "--a", "1,2,4",
                             "--what", what, "--m", "9", "--trunc", "30")
        assert code == 0
    code, _, _ = run_cli(capsys, "count", "--N", "7", "--a", "1,2,4",
                         "--side", "all", "--n-max", "30")
    assert code == 0
    assert products == []


# the checks of the benchmark's three workloads (bench/workloads.py)
WORKLOAD_CHECKS = {
    "peel": ("--checks", "lemma1,lemma2,eq357,key,rec,tmj", "--trunc", "44"),
    "theorem": ("--checks", "theorem", "--trunc", "120"),
    "chain": ("--checks", "chain", "--trunc", "56", "--x-trunc", "5"),
}


def battery_cache_misses(checks):
    """Misses of the ladder and weight-pair caches over ``verify
    --battery`` with ``checks``, read before a command would clear them."""
    args = cli._parser().parse_args(["verify", "--battery", *checks])
    recurrence_engine._ladder.cache_clear()
    recurrence_engine._weight_pairs.cache_clear()
    for N, a in cli.BATTERY:
        cli._run_checks(build_system(a, N), args, args.checks.split(","))
    return (recurrence_engine._ladder.cache_info().misses,
            recurrence_engine._weight_pairs.cache_info().misses)


@pytest.mark.parametrize("checks", WORKLOAD_CHECKS.values(),
                         ids=WORKLOAD_CHECKS)
def test_bounded_caches_miss_as_unbounded_ones(monkeypatch, checks):
    # a command reads its tables one system at a time, so the bounded
    # caches build each ladder and weight-pair table once, as before
    bounded = battery_cache_misses(checks)
    for name in ("_ladder", "_weight_pairs"):
        unbounded = lru_cache(maxsize=None)(
            getattr(recurrence_engine, name).__wrapped__)
        monkeypatch.setattr(recurrence_engine, name, unbounded)
    assert bounded == battery_cache_misses(checks)
    assert bounded[1] > 0


def test_library_callers_keep_bounded_tables():
    # outside the CLI nothing clears the caches, so their size bounds them
    assert recurrence_engine._weight_pairs.cache_info().maxsize \
        == MAX_GENERATORS + 1       # every cutoff of any one system
    for N in range(3, 40):
        sys_ = build_system([1, 2], N)
        g_series(sys_, N, 6)
        for k in range(1, sys_.r + 2):
            recurrence_engine._weight_pairs(sys_, k)
    for cached in (recurrence_engine._ladder, recurrence_engine._weight_pairs):
        info = cached.cache_info()
        assert info.misses > info.maxsize >= info.currsize


def test_one_parser_serves_every_command(capsys):
    # the parser is built once per process; a command leaves no default or
    # state behind for the next, whichever output it chose
    argvs = [
        ("verify", "--N", "7", "--a", "1,2,4", "--checks", "chain",
         "--trunc", "12", "--x-trunc", "3", "--output", "json"),
        ("count", "--N", "3", "--a", "1,2", "--n-max", "6", "--output",
         "csv"),
        ("verify", "--N", "7", "--a", "1,2,4", "--checks", "chain",
         "--trunc", "12", "--output", "json"),
    ]
    in_process = [run_cli(capsys, *argv)[:2] for argv in argvs]
    assert cli._parser() is cli._parser()
    fresh = [run_interpreter("-m", "overpart.cli", *argv) for argv in argvs]
    assert in_process == [(p.returncode, p.stdout.decode()) for p in fresh]
    assert [json.loads(in_process[i][1])["systems"][0]["checks"][0]["x_trunc"]
            for i in (0, 2)] == [3, 6]


def test_cli_imports_only_what_it_runs():
    # every check is one short CLI process, so start-up counts: dataclasses
    # alone pulls in inspect, ast, dis and tokenize, and only --output csv
    # needs csv.  Diffing sys.modules leaves out whatever site loaded first
    done = run_interpreter(
        "-c", "import sys; before = set(sys.modules); import overpart.cli; "
              "print(*sorted(set(sys.modules) - before))")
    added = done.stdout.decode().split()
    assert done.returncode == 0 and "overpart.cli" in added, done.stderr
    assert sorted({"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}
                  & set(added)) == []


def test_checks_survive_python_O():
    # -O strips assert statements; the verdict must not depend on them
    argv = ["-m", "overpart.cli", "verify", "--N", "7", "--a", "1,2,4",
            "--checks", ",".join(cli.ALL_CHECKS), "--trunc", "20",
            "--x-trunc", "3", "--output", "json"]
    plain = run_interpreter(*argv)
    optimized = run_interpreter("-O", *argv)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout
    assert json.loads(plain.stdout)["verdict"] == "pass"

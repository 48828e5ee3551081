"""The overpart benchmark: end-to-end and per-layer figures per workload.

    python3 bench/run.py --workload peel --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 1

Run from the repository root.  Every repetition is a fresh interpreter
(``bench/child.py``) with ``src`` on its path, so the package's caches
start cold as they do for a CLI user.  The interpreter is timed from
outside, its CPU time is read with ``os.wait4`` for that child alone, and
it reports its own peak resident size.  Every verification is checked:
exit code 0, verdict ``pass``, no failed case, and stdout equal to the
pinned digest (battery systems) or to the first repetition's (drawn
systems).  With ``--trace 1`` the runs alternate untraced and traced
repetitions and report per-layer figures instead.

Times are reported at the reference speed.  The machine this was built on
is shared, and its speed changes by up to 2x over minutes, for all code
alike.  Each child therefore times fixed reference slices between its
calls (see ``child.py``); a repetition's times, less the slices, are
scaled by ``REF_SLICE_S`` over the median slice.  The unscaled medians are
printed too.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric by name, unit and sample count.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from math import nan

from workloads import PINNED_SHA256, WORKLOADS, draw_systems, verify_argv

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CHILD = os.path.join(HERE, "child.py")

#: Import-only interpreters started before the repetitions, for setup_s.
SETUP_SPAWNS = 8
#: Fewest repetitions (untraced) or untraced/traced pairs (traced) a run
#: makes, however short ``--seconds`` is.
MIN_REPS = 3
MIN_PAIRS = 2
#: A repetition that takes longer than this is killed and fails.
CHILD_TIMEOUT_S = 120
#: Median reference slice time at the speed times are reported at: the
#: machine's usual speed when the benchmark was set up.
REF_SLICE_S = 0.05

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
             "setup_s": "s"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Sample:
    """One child interpreter, measured from outside.

    ``wall_s`` and ``cpu_s`` exclude the reference slices; ``speed`` is
    ``REF_SLICE_S`` over the median slice, the factor that brings this
    child's times to the reference speed.
    """

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    setup_s: float
    speed: float
    exit_code: int
    report: dict

    def scaled(self, name):
        return getattr(self, name) * self.speed


def spawn(argvs, trace=False):
    """Run ``child.py`` on ``argvs`` and wait for it to end."""
    spec = json.dumps({"argvs": argvs, "trace": trace})
    env = dict(os.environ, PYTHONPATH=SRC)
    read_fd, write_fd = os.pipe()
    t0 = monotonic()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, CHILD, spec], env,
        file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1),
                      (os.POSIX_SPAWN_CLOSE, read_fd)])
    os.close(write_fd)
    chunks = []
    try:
        while True:
            left = t0 + CHILD_TIMEOUT_S - monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    wall = monotonic() - t0
    cpu = usage.ru_utime + usage.ru_stime
    try:
        report = json.loads(b"".join(chunks).decode().splitlines()[-1])
        setup, peak, ref = (report["ready"] - t0, report["peak_rss_mib"],
                            report["ref"])
    except (ValueError, IndexError, KeyError):
        report, setup, peak, ref = None, nan, nan, [nan]
    return Sample(wall_s=wall - sum(ref), cpu_s=cpu - sum(ref),
                  peak_rss_mib=peak, setup_s=setup,
                  speed=REF_SLICE_S / statistics.median(ref),
                  exit_code=os.waitstatus_to_exitcode(status),
                  report=report)


def _verdict_ok(stdout):
    try:
        obj = json.loads(stdout)
    except ValueError:
        return False
    return obj.get("verdict") == "pass" and all(
        check["failures"] == 0
        for entry in obj["systems"] for check in entry["checks"])


def count_failures(workload, systems, sample, digests):
    """Failed verifications of one repetition, with a line for each.

    ``digests`` maps each drawn system to the stdout digest of its first
    repetition; later repetitions must reproduce it byte for byte.
    """
    calls = sample.report["calls"] if sample.report else []
    if sample.exit_code != 0 or len(calls) != len(systems):
        return len(systems), [f"child exited {sample.exit_code} after "
                              f"{len(calls)} of {len(systems)} systems"]
    failed, why = 0, []
    for (N, a), call in zip(systems, calls):
        digest = hashlib.sha256(call["stdout"].encode()).hexdigest()
        want = PINNED_SHA256.get((workload, N, tuple(a)))
        if want is None:
            want = digests.setdefault((N, tuple(a)), digest)
        if call["code"] != 0 or not _verdict_ok(call["stdout"]):
            why.append(f"{N}/{a}: exit {call['code']}, verdict not pass")
        elif digest != want:
            why.append(f"{N}/{a}: stdout sha256 {digest} != {want}")
        else:
            continue
        failed += 1
    return failed, why


class Run:
    """Repetitions of one workload at one seed, checked as they finish."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.systems = draw_systems(seed)
        self.argvs = [verify_argv(workload, s) for s in self.systems]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._digests = {}

    def repeat(self, trace=False):
        sample = spawn(self.argvs, trace)
        failed, why = count_failures(self.workload, self.systems, sample,
                                     self._digests)
        self.attempted += len(self.systems)
        self.failed += failed
        self.problems += why
        return sample

    def setup_only(self):
        sample = spawn([])
        if sample.exit_code != 0 or sample.report is None:
            self.problems.append(f"import-only child exited "
                                 f"{sample.exit_code}")
        return sample


def measure_end_to_end(run, seconds):
    """Median end-to-end figures over repetitions filling ``seconds``."""
    run.setup_only()                       # first import writes bytecode
    start = monotonic()
    setups = [run.setup_only() for _ in range(SETUP_SPAWNS)]
    reps = []
    while len(reps) < MIN_REPS or monotonic() - start < seconds:
        reps.append(run.repeat())
    median = statistics.median
    metrics = {}
    for name, samples in (("wall_s", reps), ("cpu_s", reps),
                          ("setup_s", setups + reps)):
        metrics[name] = (
            median([s.scaled(name) for s in samples]),
            f"median of {len(samples)}; unscaled "
            f"{median([getattr(s, name) for s in samples]):.6g}")
    metrics["peak_rss_mib"] = (median([s.peak_rss_mib for s in reps]),
                               f"median of {len(reps)}")
    return {name: (value, E2E_UNITS[name], note)
            for name, (value, note) in metrics.items()}


def measure_layers(run, seconds):
    """Per-layer figures: medians over traced repetitions, alternated with
    untraced ones that give the tracing overhead."""
    run.setup_only()
    start = monotonic()
    plain, traced = [], []
    while len(traced) < MIN_PAIRS or monotonic() - start < seconds:
        plain.append(run.repeat())
        traced.append(run.repeat(trace=True))
    done = [s for s in traced if s.report and "layers" in s.report]
    layers = [s.report["layers"] for s in done]
    median = statistics.median
    metrics = {}
    for name in (layers[0] if layers else {}):
        values = [layer[name] for layer in layers]
        if layer_unit(name) == "s":
            metrics[name] = (
                median([v * s.speed for v, s in zip(values, done)]),
                f"median of {len(values)}")
        else:
            if len(set(values)) != 1:
                run.problems.append(f"{name} differs between traced "
                                    f"repetitions: {values}")
            metrics[name] = (values[0], f"exact, in {len(values)} runs")
    base = median([s.scaled("wall_s") for s in plain])
    metrics["trace.overhead_share"] = (
        (median([s.scaled("wall_s") for s in traced]) - base) / base,
        f"medians of {len(traced)} traced and {len(plain)} untraced")
    return {name: (value, layer_unit(name), note)
            for name, (value, note) in metrics.items()}


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed)
    measure = measure_layers if trace else measure_end_to_end
    metrics = measure(run, seconds)
    for line in run.problems:
        print(f"{workload}: FAILED {line}")
    for name, (value, unit, note) in metrics.items():
        print(f"{workload} seed={seed} {name} = {value:.6g} {unit} ({note})")
    print(f"{workload} seed={seed} failed_share = "
          f"{run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} verifications)")
    correct = run.failed == 0 and not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "overpart", "cli.py")):
        print(f"error: no overpart source under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

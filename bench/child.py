"""One repetition of a workload, run in a fresh interpreter.

    python3 bench/child.py '<spec json>'

The spec is ``{"argvs": [[...], ...], "trace": bool}``: each argv goes
through ``overpart.cli.main`` in turn, in this one process.  An empty
``argvs`` only imports the CLI.  The child prints one JSON line: the
monotonic time at which ``overpart.cli`` was imported and ready, each
call's exit code and stdout, the times of the reference slices, its peak
resident size, and with ``trace`` the per-layer summary.  The benchmark
puts ``src`` on ``PYTHONPATH``.

A reference slice is a fixed piece of pure-Python work of the same kind as
the package's (dict-keyed products, a memoized recursion).  One runs before
each call and one after the last, so the slices sample the machine's speed
all through the repetition; an import-only child runs ``SETUP_SLICES``.

The peak is this process's ``VmHWM``.  The ``ru_maxrss`` that ``wait4``
returns is no lower than the spawning process's resident size at the
spawn, because Linux keeps the pre-exec high-water mark across exec.
"""

import time

import overpart.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SETUP_SLICES = 3


def reference_slice():
    """Seconds taken by one fixed slice of reference work."""
    start = time.perf_counter()
    series = {(e, d): 7 * e + d for e in range(40) for d in range(5)}
    product = {}
    for (e1, d1), c1 in series.items():
        for (e2, d2), c2 in series.items():
            key = (e1 + e2, d1 + d2)
            product[key] = product.get(key, 0) + c1 * c2
    memo = {}

    def partitions(n, largest):
        if n == 0:
            return 1
        key = (n, largest)
        if key not in memo:
            memo[key] = sum(partitions(n - k, k)
                            for k in range(1, min(n, largest) + 1))
        return memo[key]

    partitions(120, 120)
    return time.perf_counter() - start


def peak_rss_mib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(argvs, tracer=None):
    calls = []
    ref = []
    for argv in argvs:
        ref.append(reference_slice())
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = overpart.cli.main(argv)
        except Exception:  # a crash is a failed verification, not an abort
            traceback.print_exc()
            code = None
        calls.append({"code": code, "stdout": out.getvalue()})
    ref += [reference_slice() for _ in range(1 if argvs else SETUP_SLICES)]
    report = {"ready": READY, "calls": calls, "ref": ref,
              "peak_rss_mib": peak_rss_mib()}
    if tracer is not None:
        report["layers"] = tracer.summary()
    return report


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    print(json.dumps(run(spec["argvs"], tracer)))


if __name__ == "__main__":
    main()

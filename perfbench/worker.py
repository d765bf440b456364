"""Runs spanpoly command lines for the benchmark inside one process.

    python3 perfbench/worker.py --src SRC --out FILE --spawned-at T [--trace PATH]

Reads one JSON argv list per line on stdin.  For each, it calls
`spanpoly.cli.main` in this process with stdout captured, writes the captured
output to FILE, and answers one JSON line {"rc", "t0", "dt", "sampling", "crash", "ref"}.  Its first
line, {"ready": seconds, "ref"}, reports the time from spawn (T, on the
system-wide monotonic clock) until `spanpoly.cli` is imported and `main` can
be entered.  At the end of input it answers {"rss_kb": peak RSS, "ref"} and
exits.

"ref" lists [monotonic time, seconds] samples of a fixed reference kernel,
taken between ops (at start, at end, and after an op when 0.2 s have passed
since the last sample) and every 0.5 s during an op, from a timer signal,
so that the benchmark can scale op times by the speed the machine had while
they ran.  "sampling" is the time the samples took during the op; "dt"
already excludes it.

With --trace, the tracer is installed before `spanpoly` is imported and its
spans are written to PATH.json / PATH.bin at exit.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time

REF_EVERY_S = 0.2
REF_DURING_OP_S = 0.5


def reference_kernel() -> float:
    """Seconds taken by a fixed slice of interpreter work shaped like the engine's
    (tuple building, dict inserts and lookups, a keyed sort); the least of
    three runs, so that one interruption does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(3000):
            table[i % 97, i // 97, i] = len(table)
        ordered = sorted(table, key=lambda k: (k[2] * 7919) % 3001)
        sum(table[k] for k in ordered)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    rec = None
    if args.trace:
        import tracer
        rec = tracer.install(args.trace)
    import spanpoly.cli as cli
    if rec is not None:
        tracer.wrap_package(rec)
    reply = sys.stdout
    samples: list[list[float]] = []

    def sample(force: bool) -> None:
        if force or time.monotonic() - samples[-1][0] >= REF_EVERY_S:
            dur = reference_kernel()
            samples.append([time.monotonic(), dur])

    sent = 0

    def answer(obj: dict) -> None:
        nonlocal sent
        obj["ref"] = samples[sent:]
        sent = len(samples)
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    sampling = 0.0

    def sample_during_op(signum, frame) -> None:
        nonlocal sampling
        t0 = time.perf_counter()
        sample(True)
        sampling += time.perf_counter() - t0

    signal.signal(signal.SIGALRM, sample_during_op)
    ready = time.monotonic() - args.spawned_at
    sample(True)
    answer({"ready": ready})
    for line in sys.stdin:
        argv = json.loads(line)
        # start each op from the collector state a fresh process has, so one
        # op's garbage is not collected on the next op's time
        gc.collect()
        buf = io.StringIO()
        crash = None
        sampling = 0.0
        start = time.monotonic()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REF_DURING_OP_S, REF_DURING_OP_S)
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc, crash = -1, f"SystemExit: {exc.code}"
        except Exception as exc:  # an engine crash is a failed op, not a failed run
            rc, crash = -1, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0 - sampling
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        sample(False)
        answer({"rc": rc, "t0": start, "dt": dt, "sampling": sampling, "crash": crash})
    sample(True)
    answer({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())

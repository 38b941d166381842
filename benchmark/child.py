"""Run one htcas CLI job under a wall-time and address-space budget.

    python3 benchmark/child.py WALL_S MEM_MB RSS_FILE [--trace SPANS.json JOB] -- ARGS...

This is the `htcas` console script (`sys.exit(htcas.cli.main(ARGS))`) with
the budgets applied to this process only: SIGALRM ends it after WALL_S
seconds and RLIMIT_AS caps its address space at MEM_MB.  On exit it writes
its peak resident set (VmHWM, kB) to RSS_FILE: the ru_maxrss that wait4
reports is floored by the parent's peak, which exec carries over.

With --trace the job runs under benchmark/tracer.py wrappers; its stdout is
captured and written out unchanged after the wrappers are removed, and the
spans are written to SPANS.json once, at the end.
"""

import contextlib
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    wall_s, mem_mb, rss_file, rest = int(argv[0]), int(argv[1]), argv[2], argv[3:]
    trace = None
    if rest[0] == "--trace":
        trace, rest = rest[1:3], rest[3:]
    if rest[0] != "--":
        raise SystemExit("usage: child.py WALL_S MEM_MB RSS_FILE [--trace SPANS.json JOB] -- ARGS...")
    limit = mem_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.alarm(wall_s)
    try:
        return run(rest[1:], trace)
    finally:
        with open(rss_file, "w") as fh:
            fh.write(str(peak_rss_kb()))


def run(args: list[str], trace: list[str] | None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from htcas.cli import main as htcas_main

    if trace is None:
        return htcas_main(args)

    from tracer import Tracer

    tracer = Tracer(trace[1])
    tracer.install()
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = htcas_main(args)
    finally:
        wall = perf_counter() - start
        tracer.uninstall()
    sys.stdout.write(out.getvalue())
    with open(trace[0], "w") as fh:
        json.dump(tracer.record(wall), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

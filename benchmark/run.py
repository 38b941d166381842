"""The htcas benchmark: CLI pipelines timed end to end, outputs checked.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: the jobs of a workload run back to back, one
fresh `htcas` process at a time, each under its own wall-time and
address-space budget (benchmark/child.py).  Passes over the job list repeat
until S seconds have been measured, and at least as often as the workload
asks; every metric is the median over passes.
The outputs are then judged by the engine's two-route oracles
(benchmark/oracles.py); a job fails on a nonzero exit, on exceeding its
budget, or when an oracle rejects its output.

--trace 0 prints the end-to-end metrics.  --trace 1 also replays one pass
with every job under benchmark/tracer.py and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The engine is one process with no queues or locks, so no layer
reports waiting time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import SPANNED_KEYS, WRAPPED, Tracer, self_times  # noqa: E402

JOB_WALL_S = 120      # today's largest job (mapmodel n4, arity 4) takes 30-45 s
JOB_MEM_MB = 3072     # ... and peaks at about 860 MB resident
RUN_DEADLINE_S = 170  # a run must end within 180 s; budgets shrink to fit
SETUP_ROUNDS = 3
# Oracle rejections present at the seed commit, with the seed-0 generator
# names.  They count as failed jobs.  `correct` reports whether every output
# is right, and it stays true only while this is the only wrong output.
KNOWN_DEFECTS = {
    ("mapmodel-arity4", "mapmodel n4"): "BS routes disagree at t.a.e.c, t.b.e.c",
}
DIGESTS = HERE / "digests.json"


@dataclass
class JobRun:
    job: workloads.Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    failure: str | None
    rejected: bool = False  # the failure is an oracle's verdict on the output


def spawn(args: list[str], out: Path, err: Path, rss: Path, budget_s: int
          ) -> tuple[int, float, object]:
    """Run benchmark/child.py with `args`; wait for it; return its wait
    status, wall time and rusage."""
    argv = [sys.executable, str(HERE / "child.py"), str(budget_s), str(JOB_MEM_MB), str(rss),
            *args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return status, perf_counter() - start, usage


class Runner:
    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + RUN_DEADLINE_S
        self.count = 0

    def budget(self) -> int:
        return max(1, min(JOB_WALL_S, int(self.deadline - perf_counter())))

    def run(self, job: workloads.Job, trace: Path | None = None) -> JobRun:
        self.count += 1
        out, err, rss = (self.workdir / f"job{self.count}.{s}" for s in ("out", "err", "rss"))
        budget = self.budget()
        extra = ["--trace", str(trace), job.name] if trace else []
        status, wall, usage = spawn([*extra, "--", *job.argv], out, err, rss, budget)
        stdout = out.read_text()
        # a job killed before it could report is charged wait4's figure,
        # an upper bound
        rss_kb = int(rss.read_text()) if rss.exists() else usage.ru_maxrss
        failure = None
        if os.WIFSIGNALED(status):
            sig = os.WTERMSIG(status)
            failure = (f"over the {budget} s wall budget" if sig == signal.SIGALRM
                       else f"killed by {signal.Signals(sig).name}")
        elif os.WEXITSTATUS(status):
            lines = err.read_text().strip().splitlines() or [""]
            failure = (f"over the {JOB_MEM_MB} MB address-space budget"
                       if "MemoryError" in lines[-1]
                       else f"exit {os.WEXITSTATUS(status)}: {lines[-1][:200]}")
        return JobRun(job, wall, usage.ru_utime + usage.ru_stime, rss_kb / 1024, stdout, failure)

    def make(self, path: str, args: list[str]) -> None:
        """Write the stdout of `htcas ARGS` to `path` (set-up, not timed)."""
        result = self.run(workloads.Job(f"make {path}", args, "nonempty"))
        if result.failure:
            raise RuntimeError(f"set-up: htcas {' '.join(args)}: {result.failure}")
        Path(path).write_text(result.stdout)

    def setup_time(self, files: list[str]) -> float:
        """Interpreter start, `import htcas` and one parse: `htcas check` per file."""
        total = 0.0
        for f in files:
            result = self.run(workloads.Job(f"check {f}", ["check", f], "nonempty"))
            if result.failure:
                raise RuntimeError(f"set-up: htcas check {f}: {result.failure}")
            total += result.wall_s
        return total


def judge(runs: list[JobRun], scratch: Path, verdicts: dict) -> None:
    """Apply the oracles to one pass; a rejection becomes the job's failure.

    Verdicts are cached by job and output digest, since passes repeat."""
    import oracles

    outputs = {r.job.name: r.stdout for r in runs if not r.failure}
    for r in runs:
        if r.failure:
            continue
        key = (r.job.name, digest(r.stdout), digest(outputs.get(r.job.peer, "")))
        if key not in verdicts:
            try:
                verdicts[key] = oracles.check(r.job, r.stdout, outputs, scratch)
            except Exception as exc:  # unparsable output is a rejection
                verdicts[key] = f"output rejected: {type(exc).__name__}: {exc}"
        r.failure = verdicts[key]
        r.rejected = r.failure is not None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def print_digests(wl: workloads.Workload, runs: list[JobRun], seed: int) -> None:
    """Compare each job's stdout with the digest pinned at seed 0.

    Informational only: a correctness fix changes output on purpose."""
    pinned = json.loads(DIGESTS.read_text()).get(wl.name, {})
    for r in runs:
        sha = digest(r.stdout)
        if seed:
            state = "unpinned (relabelled inputs)"
        else:
            state = "same" if pinned.get(r.job.name) == sha else "CHANGED"
        print(f"digest {r.job.name!r} sha256 {sha} {state}")


def pass_metrics(runs: list[JobRun]) -> dict[str, float]:
    return {"wall_s": sum(r.wall_s for r in runs),
            "cpu_s": sum(r.cpu_s for r in runs),
            "peak_rss_mb": max(r.rss_mb for r in runs)}


COUNTERS = ("transfer.linf_candidate_words", "transfer.linf_nonzero_images",
            "mapping.convolution_words", "mapping.convolution_nonzero_images",
            "transfer.ainf_nonzero_images")
CALLS = ("core.canonical_word", "core.tensor_apply", "linalg.solve", "linalg.rref",
         "linalg.in_span", "structures.check_linf")
ORACLE_ROUTE = "mapping.reduced_bs_direct"  # runs only in the checker


def per_layer(records: list[dict], oracle_records: list[dict],
              overhead_s: float) -> tuple[dict[str, float], list[str]]:
    """Sum the traced jobs' spans and counts into the per-layer metrics."""
    totals: dict[str, Counter] = {k: Counter() for k in ("self", "calls", "errors", "counters")}
    absent: set[str] = set()
    for rec in records:
        totals["self"].update(self_times(rec["spans"]))
        for k in ("calls", "errors", "counters"):
            totals[k].update(rec[k])
        absent.update(rec["absent"])
    oracle_self = Counter()
    for rec in oracle_records:
        oracle_self.update(self_times(rec["spans"]))
    selfs, calls, counters = totals["self"], totals["calls"], totals["counters"]

    m = {f"{k}.errors": totals["errors"][k] for k in WRAPPED}
    m.update({f"{k}.self_s": float((oracle_self if k == ORACLE_ROUTE else selfs)[k])
              for k in SPANNED_KEYS})
    m.update({f"{k}.calls": calls[k] for k in CALLS})
    m["core.Element.inits"] = calls["core.Element.__init__"]
    m.update({k: counters[k] for k in COUNTERS})
    for num, den, name in (
            ("transfer.linf_nonzero_images", "transfer.linf_candidate_words",
             "transfer.linf_useful_ratio"),
            ("mapping.convolution_nonzero_images", "mapping.convolution_words",
             "mapping.convolution_useful_ratio")):
        m[name] = counters[num] / counters[den] if counters[den] else 0.0
    m["trace.overhead_s"] = overhead_s
    m["trace.absent_wrappers"] = len(absent)
    notes = [f"{rec['job']}: {k} = {v}" for rec in records
             for k, v in sorted(rec["counters"].items())]
    notes += [f"absent: {a}" for a in sorted(absent)]
    return m, notes


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ok/attempted",
         "setup_s": "s"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def traced_pass(wl, runner: Runner, untraced: list[JobRun]):
    """Replay the jobs under the tracer; check the run's integrity."""
    records, problems, runs = [], [], []
    for i, job in enumerate(wl.jobs):
        spans = runner.workdir / f"spans{i}.json"
        r = runner.run(job, trace=spans)
        runs.append(r)
        if r.failure:  # counted as a failed job
            print(f"traced {job.name} failed: {r.failure}")
            continue
        base = next(u for u in untraced if u.job is job)
        if base.rejected or not base.failure:  # the untraced job ran to the end
            if r.stdout != base.stdout:
                problems.append(f"traced {job.name}: output differs from the untraced run")
            else:  # same output, same verdict
                r.failure, r.rejected = base.failure, base.rejected
        if not spans.exists():
            problems.append(f"traced {job.name}: no spans written")
            continue
        rec = json.loads(spans.read_text())
        records.append(rec)
        if not rec["restored"]:
            problems.append(f"traced {job.name}: wrappers left installed")
        if sum(self_times(rec["spans"]).values()) > rec["wall_s"] * (1 + 1e-9):
            problems.append(f"traced {job.name}: span self times exceed the job's wall time")
    return runs, records, problems


def traced_oracles(runs: list[JobRun], scratch: Path) -> list[dict]:
    """Run the oracles again under the tracer, to time the checking routes."""
    import oracles

    outputs = {r.job.name: r.stdout for r in runs}
    records = []
    for r in runs:
        tracer = Tracer(f"oracle {r.job.name}")
        tracer.install()
        start = perf_counter()
        try:
            oracles.check(r.job, r.stdout, outputs, scratch)
        except Exception:
            pass  # the verdict was taken in the untraced pass
        finally:
            tracer.uninstall()
        records.append(tracer.record(perf_counter() - start))
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into an exception, so the running job is
    # killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "htcas" / "cli.py").is_file():
        print(f"error: no htcas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        workdir = Path(".bench_run") / f"{name}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            measure(name, args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # only when no other run uses it
                workdir.parent.rmdir()
    return 0


def measure(name: str, args, workdir: Path) -> None:
    """Set up, run and judge one workload; print its report and result line."""
    runner = Runner(workdir, perf_counter())
    wl = workloads.build(name, workdir, args.seed)
    for path, cli_args in wl.derived.items():
        runner.make(path, cli_args)
    setups = [runner.setup_time(wl.files) for _ in range(SETUP_ROUNDS)]

    passes: list[list[JobRun]] = []
    verdicts: dict = {}
    clock = perf_counter()
    while len(passes) < wl.min_passes or perf_counter() - clock < args.seconds:
        passes.append([runner.run(job) for job in wl.jobs])
    for runs in passes:
        judge(runs, workdir, verdicts)
    all_runs = [r for runs in passes for r in runs]
    per_pass = [pass_metrics(runs) for runs in passes]
    failed = sum(1 for r in all_runs if r.failure)
    unexpected = [f"{r.job.name}: {r.failure}" for r in all_runs
                  if r.rejected and KNOWN_DEFECTS.get((wl.name, r.job.name)) != r.failure]

    print(f"workload {wl.name}  seed {args.seed}  {len(passes)} pass(es) of {len(wl.jobs)} jobs"
          f"  (closed loop, 1 client, one job process at a time)")
    print(f"{'job':<24}{'wall_s':>9}{'cpu_s':>9}{'rss_mb':>9}  verdict")
    for r in passes[0]:
        print(f"{r.job.name:<24}{r.wall_s:9.3f}{r.cpu_s:9.3f}{r.rss_mb:9.1f}  "
              f"{'FAILED: ' + r.failure if r.failure else 'ok'}")
    print_digests(wl, passes[0], args.seed)
    for e in unexpected:
        print(f"wrong output: {e}")

    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["ok_ratio"] = (len(all_runs) - failed) / len(all_runs)
    metrics["setup_s"] = statistics.median(setups)
    print(f"fail_ratio {failed / len(all_runs):.4f} ({failed} failed / {len(all_runs)} attempted)")
    print(f"setup_s: median of {SETUP_ROUNDS} set-ups, {len(wl.files)} files each")

    problems = []
    if args.trace:
        runs, records, problems = traced_pass(wl, runner, passes[0])
        all_runs += runs
        failed += sum(1 for r in runs if r.failure)
        overhead = sum(r.wall_s for r in runs) - metrics["wall_s"]
        oracle_records = traced_oracles(passes[0], workdir)
        metrics, notes = per_layer(records, oracle_records, overhead)
        for n in notes:
            print(f"note: {n}")
        print("note: no layer reports waiting time: the engine is one process "
              "with no queues or locks")
        for p in problems:
            print(f"trace integrity: {p}")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {unit(k)}")
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())

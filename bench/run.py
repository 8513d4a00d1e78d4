"""jetsym benchmark: four exact-algebra workloads, job-time metrics, and an
outside-in layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the jetsym source under
./src.  Each pass runs the workload's whole job list once in a fresh
interpreter (worker.py), one pass at a time, until S seconds of passes
have been measured (at least MIN_PASSES).  The first pass also checks every
output; later passes must reproduce its outputs byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones (medians over
passes); with --trace 1 they are the per-layer ones from the traced passes.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flat-symmetry", "linearizable-taylor", "segre-series", "cr-closure")
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s; a worker is stopped before that

END_TO_END = {"setup_s": "s", "wall_s": "s", "largest_job_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def run_pass(args, root: Path, workdir: Path, check: bool, trace_out: Path | None, limit: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        "--check", "1" if check else "0", "--workdir", str(workdir), "--limit", str(max(limit, 1.0)),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # A fixed hash seed makes set iteration inside the program, and so its
    # cost, the same in every pass and every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    )
    try:
        if proc.stdout.readline().strip() != "READY":
            raise BenchError("worker ended during set-up")
        setup = perf_counter() - t0
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        if not line:
            raise BenchError("worker ended during the pass")
        result = json.loads(line)
        if check:
            line = proc.stdout.readline()
            if not line:
                raise BenchError("worker ended during the output checks")
            result["problems"] = json.loads(line)["problems"]
        if proc.wait(timeout=max(limit, 1.0)) != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    result["setup_s"] = setup
    result["elapsed_s"] = elapsed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "jetsym" / "__init__.py").is_file():
        print("error: no jetsym source at ./src/jetsym; run from the repository root", file=sys.stderr)
        return 2
    build = root / ".bench_build" / "jetsym-bench"
    workdir = build / f"{args.workload}-{os.getpid()}"
    trace_out = build / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None

    passes = []
    measured = 0.0
    start = perf_counter()
    try:
        while len(passes) < MIN_PASSES or measured < args.seconds:
            limit = RUN_LIMIT_S - (perf_counter() - start)
            p = run_pass(args, root, workdir, check=not passes, trace_out=trace_out, limit=limit)
            measured += p["elapsed_s"]
            passes.append(p)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload} pass {len(passes) + 1}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(passes[0]["problems"])
    first = {job["name"]: job for job in passes[0]["jobs"]}
    for k, p in enumerate(passes[1:], start=2):
        for job in p["jobs"]:
            ref = first[job["name"]]
            if job["ok"] != ref["ok"] or job.get("digest") != ref.get("digest"):
                problems.append(f"pass {k}: {job['name']} differs from pass 1")
    for job in passes[0]["jobs"]:
        if not job["ok"]:
            print(f"failed: {job['name']}: {job['error']}", file=sys.stderr)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    if args.trace:
        import layertrace  # beside this script, so on sys.path

        names = passes[0]["layers"].keys()
        units = layertrace.metric_units()
        values = {name: statistics.median(p["layers"][name] for p in passes) for name in names}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    else:
        metrics = {
            name: {"value": statistics.median(p[name] for p in passes), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    report = {
        "correct": not problems,
        "attempted": sum(len(p["jobs"]) for p in passes),
        "failed": sum(1 for p in passes for job in p["jobs"] if not job["ok"]),
        "metrics": metrics,
    }
    print(f"passes: {len(passes)}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

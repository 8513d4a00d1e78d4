"""One timed pass of one workload, in a fresh interpreter.

run.py starts this script once per pass, so no program state carries from
one pass to the next.  Protocol on stdout, one line each:

    READY                  set-up done: jetsym imported, inputs built
    {"wall_s": ...}        the pass: job times, outcomes, digests, peak RSS
    {"problems": [...]}    only with --check 1: output checks

With --trace 1 the layer functions are wrapped (layertrace.py) before the
inputs are built, and the pass line carries the per-layer values.
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import os
import random
import resource
import sys
from time import perf_counter


def emit(doc) -> None:
    sys.stdout.write((doc if isinstance(doc, str) else json.dumps(doc)) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--limit", type=float, default=170.0, help="seconds before the worker stops itself")
    args = parser.parse_args()
    faulthandler.dump_traceback_later(args.limit, exit=True)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        tracer.active = True
    J = workloads.program_api()
    rng = random.Random(f"{args.workload}:{args.seed}")
    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](J, rng, args.workdir)
    emit("READY")

    results, outcomes = {}, []
    start = perf_counter()
    for job in wl.jobs:
        t0 = perf_counter()
        try:
            result = job.run()
            ok = job.succeeded(result)
        except Exception as exc:  # a job that raises is a failed operation
            result, ok = exc, False
        seconds = perf_counter() - t0
        if ok:
            results[job.name] = result
        outcomes.append((job, ok, seconds, result))
    wall = perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.active = False

    jobs = []
    for job, ok, seconds, result in outcomes:
        entry = {"name": job.name, "ok": ok, "seconds": seconds}
        if ok:
            entry["digest"] = hashlib.sha256(job.text(result).encode()).hexdigest()
        elif isinstance(result, Exception):
            entry["error"] = f"{type(result).__name__}: {result}"
        else:
            entry["error"] = f"exit code {result[0]}: {result[2].strip()[:200]}"
        jobs.append(entry)
    largest = next(e["seconds"] for e in jobs if e["name"] == wl.largest)
    line = {"wall_s": wall, "largest_job_s": largest, "peak_rss_mb": rss_kb / 1024, "jobs": jobs}
    if tracer is not None:
        line["layers"] = layertrace.layer_values(tracer, wall)
        if args.trace_out:
            tracer.write(args.trace_out)
    emit(line)

    if args.check:
        try:
            problems = wl.check(results)
        except Exception as exc:  # an output the checks cannot even read
            problems = [f"checks raised {type(exc).__name__}: {exc}"]
        emit({"problems": problems})
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the per-job output digests of two source trees.

Usage, from anywhere:

    python tests/compare_digests.py BASE_TREE HEAD_TREE

Each tree is a checkout of this repository.  In each, one checked worker
pass (``bench/worker.py --check 1``, with PYTHONHASHSEED=0) runs for every
benchmark workload at seeds 1 and 7, and the two outputs of each workload
and seed are compared.  Exit status 1 on a worker that exits nonzero, on
any output check problem of the head tree, on an output of either tree with
no jobs line, on a workload and seed whose two outputs list different jobs,
and on any job whose ok flag or output digest differs; 0 otherwise.  Check
problems of the base tree are printed, not counted.  pytest does not collect
this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ["flat-symmetry", "linearizable-taylor", "segre-series", "cr-closure"]
SEEDS = [1, 7]


def worker_output(tree: Path, workload: str, seed: int, workdir: str) -> tuple[int, str]:
    """The exit status and stdout of one checked worker pass in ``tree``."""
    cmd = [sys.executable, "bench/worker.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--workdir", workdir, "--check", "1"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def read(text: str):
    """Whether the output has a jobs line, {job: (ok, digest)}, and the
    output check problems."""
    docs = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    listed = any("jobs" in d for d in docs)
    jobs = {j["name"]: (j["ok"], j.get("digest")) for d in docs if "jobs" in d for j in d["jobs"]}
    problems = [p for d in docs if "problems" in d for p in d["problems"]]
    return listed, jobs, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = {"base": Path(argv[0]).resolve(), "head": Path(argv[1]).resolve()}
    failures = []
    with tempfile.TemporaryDirectory(prefix="jetsym-digests-") as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                name = f"{workload}-{seed}"
                out = {}
                for side, tree in trees.items():
                    status, text = worker_output(tree, workload, seed, os.path.join(tmp, f"work-{side}-{name}"))
                    if status != 0:
                        failures.append(f"{name}: the {side} worker exited with status {status}")
                    out[side] = read(text)
                _, base_jobs, base_problems = out["base"]
                _, jobs, problems = out["head"]
                print(f"{name}: {len(jobs)} jobs on this tree, {len(base_jobs)} on the base")
                for p in base_problems:
                    print(f"  base check problem: {p}")
                failures += [f"{name}: no jobs line in the {side} output" for side in trees if not out[side][0]]
                failures += [f"{name}: only on this tree: {n}" for n in sorted(jobs.keys() - base_jobs.keys())]
                failures += [f"{name}: only on the base: {n}" for n in sorted(base_jobs.keys() - jobs.keys())]
                failures += [f"{name}: check problem: {p}" for p in problems]
                failures += [
                    f"{name}: {n}: base {base_jobs[n]}, head {jobs[n]}"
                    for n in sorted(jobs.keys() & base_jobs.keys())
                    if jobs[n] != base_jobs[n]
                ]
    print("\n".join(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

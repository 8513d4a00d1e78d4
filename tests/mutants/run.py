"""Run the checked-in mutants: each must be killed by the tests named for it.

Usage, from anywhere:

    python tests/mutants/run.py

``manifest.json`` lists the mutants: a name, a patch against the source
tree, what the patch breaks, and the tests that must fail on it.  The
named tests first run on an unpatched copy of the tree, where they must
pass.  Then, for each mutant, the tree is copied to a temporary directory,
the patch is applied there with ``git apply``, and only the named tests
run.  One line per mutant reads ``killed`` (a named test failed) or ``survived`` (all passed).

Exit status 0 when every mutant is killed; 1 when one survives, when a
patch no longer applies (a change rewrote the mutated code: refresh the
patch), when it applies only at an offset (``git apply -v`` reports a hunk
that succeeded at another line: a change moved the mutated code, and a
patch that lands by offset may land on the wrong lines, so refresh it too),
or when the named tests cannot run or fail unpatched.  pytest does not
collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
COPIED = ["src", "tests", "pyproject.toml"]


def copy_tree(dest: Path) -> None:
    """The parts of the tree the tests read, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests: list[str]) -> int:
    """pytest's exit status for the named tests in ``tree``: 0 all passed,
    1 some failed, anything else the tests did not run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    mutants = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
    named = sorted({t for m in mutants for t in m["tests"]})
    with tempfile.TemporaryDirectory(prefix="jetsym-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        status = run_tests(clean, named)
        if status != 0:
            print(f"error: the named tests do not pass on the unpatched tree (pytest exit {status})")
            return 1
        killed, failures = 0, 0
        for mutant in mutants:
            tree = Path(tmp) / mutant["name"]
            copy_tree(tree)
            applied = subprocess.run(
                ["git", "apply", "-v", str(HERE / mutant["patch"])], cwd=tree, capture_output=True, text=True
            )
            if applied.returncode != 0:
                print(f"{mutant['name']}: error: patch does not apply: {applied.stderr.strip()}")
                failures += 1
                continue
            if "(offset" in applied.stdout + applied.stderr:
                print(f"{mutant['name']}: error: patch applies only at an offset: refresh it")
                failures += 1
                continue
            status = run_tests(tree, mutant["tests"])
            if status == 1:
                print(f"{mutant['name']}: killed")
                killed += 1
            elif status == 0:
                print(f"{mutant['name']}: survived")
                failures += 1
            else:
                print(f"{mutant['name']}: error: the named tests did not run (pytest exit {status})")
                failures += 1
            shutil.rmtree(tree)
    print(f"{killed} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of ``tools/profile_problem.py``: it profiles one benchmark
problem in-process and prints the statistics of that problem alone."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "profile_problem.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_profiles_one_problem():
    done = _run("coaction", "endomorphism_5x5", "--seed", "1",
                "--sort", "cumulative", "--top", "5")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("coaction endomorphism_5x5, seed 1\n")
    assert "Ordered by: cumulative time" in done.stdout
    assert "(endomorphism_certificate)" in done.stdout


def test_unknown_problem_lists_the_workload_problems():
    done = _run("coaction", "no_such_problem")
    assert done.returncode == 2
    assert "taft_field, nichols_mat4, taft_3_2, endomorphism_5x5" in (
        done.stderr)

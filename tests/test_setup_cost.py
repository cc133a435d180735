"""Smoke test of ``tools/setup_cost.py``: it splits one workload's
set-up into the compile and exec of each galbim module and the build
of the inputs."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "setup_cost.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_splits_one_workload_set_up():
    done = _run("coaction", "--seed", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "coaction, seed 1: set-up in ms"
    modules = [line.split()[0] for line in lines[2:]
               if line.startswith("galbim")]
    assert modules[0] == "galbim"
    assert {"galbim.fieldops", "galbim.bimod", "galbim.coact"} <= set(
        modules)
    assert len(modules) == len(set(modules))
    assert lines[-2].startswith("workloads.build('coaction', 1): ")
    assert lines[-1].startswith("total: ")


def test_unknown_workload_lists_the_workloads():
    done = _run("no_such_workload")
    assert done.returncode == 2
    assert "coaction, numfield, quartic, radical" in done.stderr

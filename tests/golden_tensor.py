"""Golden records of phi on tensor powers: one canonical line per record.

The corpus is the two derivation blocks of the benchmark's radical
workload at seed 1: a derivation D of F_p(t), the tensor power
T = M(D)^(x)k of its block and its sample fractions a.  For each block
the lines hold T.phi(a) for every sample, the witness pair that
``contains_m_of_d(T, D^p)`` returns and the verdict of
``p_power_compatible(M(D), D)``.  Matrices and vectors are written
entry by entry in the library's canonical form.

    PYTHONPATH=src python tests/golden_tensor.py

rewrites ``tests/golden/tensor_phi.txt``.  Regenerate only for a change
that is meant to alter these values, and name each changed record in
CHANGES.md; ``test_golden.py`` compares the records with the file.
"""

import inspect

from golden_analyze import ROOT, SEED, load_workloads

from galbim import bimod, derivations

GOLDEN = ROOT / "tests" / "golden" / "tensor_phi.txt"


def blocks():
    """(label, D, k, samples) for each derivation block of radical."""
    out = []
    for problem, solve in load_workloads().build("radical", SEED):
        if problem.startswith("m_of_d_"):
            env = inspect.getclosurevars(solve).nonlocals
            out.append(("radical/" + problem, env["D"], env["power"],
                        env["samples"]))
    return out


def records():
    """The labelled record lines of every block, in workload order."""
    lines = []
    for label, D, k, samples in blocks():
        M = derivations.m_of_d(D)
        T = bimod.tensor_power(M, k)
        for i, a in enumerate(samples):
            lines.append("%s phi[%d] a=%r %r" % (label, i, a, T.phi(a)))
        ok, (v1, v2) = derivations.contains_m_of_d(T, derivations.p_power(D))
        lines.append("%s witness ok=%r v1=%r v2=%r" % (label, ok, v1, v2))
        lines.append("%s p_power_compatible=%r"
                     % (label, derivations.p_power_compatible(M, D)))
    return lines


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(records()) + "\n")

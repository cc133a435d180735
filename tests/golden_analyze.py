"""Golden records of ``bimod.analyze``: one canonical line per analysis.

The corpus is every ``analyze`` call that the benchmark's quartic,
numfield and radical workloads make at seed 1, then the biquadratic
field below, whose center is not a tower layer, then the group
bimodules of three splitting fields L over Q analysed in a supplied
tower E = L (``supplied/``).  A line holds the key
of the embedding iota, rho, H, each factor's multiplicity, inseparable
exponent and character keys, the semisimple, split and H-normal flags
and both Galois verdicts; an analysis that raises records the type of
its exception instead.

    PYTHONPATH=src python tests/golden_analyze.py

rewrites ``tests/golden/analyze.txt``.  Regenerate only for a change
that is meant to alter an analysis, and name each changed record in
CHANGES.md; ``test_golden.py`` compares the records with the file.
"""

import importlib.util
import pathlib

from galbim import bimod
from galbim.fieldbase import QQ
from galbim.fieldops import splitting_field
from galbim.morphisms import (
    AutomorphismGroup,
    FieldMorphism,
    automorphisms_over,
)
from galbim.poly import Polynomial
from galbim.towers import extend

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "analyze.txt"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEED = 1
CORPUS = ("quartic", "numfield", "radical")
# polynomials over Q, low coefficient first, whose splitting fields
# are analysed in supplied mode
SUPPLIED = {
    "x^3-2": [-2, 0, 0, 1],
    "x^4-2": [-2, 0, 0, 0, 1],
    "x^4-x^2-1": [-1, 0, -1, 0, 1],
}


def biquadratic():
    """L = Q(a)(b) with a^2 = 2 and b^2 = 3, and the group
    {id, a -> -a, b -> -b}; its fixed field Q(sqrt 6) is not a layer
    of L."""
    A = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "a")
    L = extend(A, Polynomial(A, [A.from_int(-3), A.zero(), A.one()]), "b")
    sigma = FieldMorphism(L, L, {A: -L.coerce(A.gen()), L: -L.gen()})
    return L, AutomorphismGroup(L, [sigma])


def supplied_group_bimodules():
    """(label, P, L) for each SUPPLIED polynomial: L is its splitting
    field over Q and P the bimodule of Aut(L/Q)."""
    out = []
    for label, coeffs in SUPPLIED.items():
        L = splitting_field(Polynomial(QQ, coeffs)).field
        P = bimod.bimodule_of_group(L, automorphisms_over(L, QQ))
        out.append((label, P, L))
    return out


def record(P, an):
    """The canonical line of one analysis of P."""
    factors = [
        (f.multiplicity, f.insep_exponent, [g.key() for g in f.characters])
        for f in an.factors
    ]
    return (
        "iota=%r rho=%r H=%r factors=%r semisimple=%r split=%r "
        "h_normal=%r weakly=%r galois=%r"
        % (an.iota.key(), an.rho, an.h_indices, factors, an.semisimple,
           an.is_split, an.h_normal,
           bimod.is_weakly_galois(P, analysis=an),
           bimod.is_galois(P, analysis=an))
    )


def load_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def records():
    """The labelled record lines of the whole corpus, in call order."""
    workloads = load_workloads()
    lines = []
    label = None
    analyze = bimod.analyze

    def recorded(P, *args, **kw):
        try:
            an = analyze(P, *args, **kw)
        except Exception as err:
            lines.append("%s %s" % (label, type(err).__name__))
            raise
        lines.append("%s %s" % (label, record(P, an)))
        return an

    bimod.analyze = recorded
    try:
        for name in CORPUS:
            for problem, solve in workloads.build(name, SEED):
                label = "%s/%s" % (name, problem)
                solve()
    finally:
        bimod.analyze = analyze
    L, G = biquadratic()
    P = bimod.bimodule_of_group(L, G)
    Q = bimod.direct_sum(P, bimod.twist(L, G[0]))
    for label, B in (("biquadratic/group", P), ("biquadratic/group+id", Q)):
        lines.append("%s %s" % (label, record(B, bimod.analyze(B))))
    for label, P, L in supplied_group_bimodules():
        lines.append("supplied/%s %s"
                     % (label, record(P, bimod.analyze(P, E=L))))
    return lines


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(records()) + "\n")

"""Golden records of ``factor.factor_poly`` and ``fieldops.splitting_field``.

The corpus, in order:

* every factorization that ``splitting_field`` asks for while it splits
  the benchmark's eight numfield polynomials (the polynomial over Q,
  then the cofactors over each new layer), followed by one line per
  polynomial with the relation of each layer and the roots in order;
* the polynomials over Q(i), Q(sqrt 2), Q(2^(1/3)) and Q(i)(sqrt 2)
  that ``test_factor_tower.py`` compares with sympy;
* the random polynomials that the benchmark's radical workload factors
  over GF(2), GF(3), GF(5), GF(7) and GF(9) at seed 1.

A factorization line holds the field, the input, the leading
coefficient and the sorted (factor, multiplicity) list.  Only the calls
these entry points make are recorded, not the ones ``factor_poly`` makes
inside itself (the norms of Trager's method), whose inputs depend on the
shift it picks.

    PYTHONPATH=src python tests/golden_factor.py

rewrites ``tests/golden/factor.txt``.  Regenerate only for a change
that is meant to alter a factorization, and name each changed record in
CHANGES.md; ``test_golden.py`` compares the records with the file.
"""

import pathlib
import random

import golden_analyze
import test_factor_tower
from galbim import factor, fieldops
from galbim.fieldbase import QQ
from galbim.poly import Polynomial
from galbim.towers import chain

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "factor.txt"
SEED = 1


def record(label, f, result):
    lead, factors = result
    return "%s field=%r f=%r lead=%r factors=%r" % (
        label, f.field, f, lead, [(g, m) for g, m in factors])


def records():
    """The labelled record lines of the whole corpus, in call order."""
    workloads = golden_analyze.load_workloads()
    lines = []
    label = None
    factor_poly = fieldops.factor_poly

    def recorded(f, *args, **kw):
        out = factor_poly(f, *args, **kw)
        lines.append(record(label, f, out))
        return out

    fieldops.factor_poly = recorded
    try:
        for coeffs, _deg in workloads.NUMFIELD_SPLIT:
            f = Polynomial(QQ, coeffs)
            label = "split/%s" % (f,)
            data = fieldops.splitting_field(f)
            relations = [L.relation for L in chain(data.field)[1:]]
            lines.append("%s relations=%r roots=%r"
                         % (label, relations, data.roots))
    finally:
        fieldops.factor_poly = factor_poly

    rng = random.Random(2013)
    fields = test_factor_tower._fields()
    for name, count, max_degree in test_factor_tower.CASES:
        for _ in range(count):
            f = test_factor_tower._random_product(fields[name], rng,
                                                  max_degree)
            lines.append(record("tower/%s" % name, f, factor.factor_poly(f)))

    for problem, solve in workloads.build("radical", SEED):
        if problem != "factor_finite":
            continue
        factor_poly = factor.factor_poly

        def recorded_finite(f, *args, **kw):
            out = factor_poly(f, *args, **kw)
            lines.append(record("finite", f, out))
            return out

        factor.factor_poly = recorded_finite
        try:
            solve()
        finally:
            factor.factor_poly = factor_poly
    return lines


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(records()) + "\n")

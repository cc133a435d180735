"""Duality carries the checks: the dual of a verified Hopf algebra is
verified, and each module-algebra law of an H-action is checked as the
matching comodule-algebra law of the coaction of H*."""

import pytest

from galbim.errors import NotModuleAlgebra
from galbim.fieldbase import QQ
from galbim.hopf import (
    action_to_coaction,
    dual,
    group_algebra,
    nichols16,
    taft,
)
from galbim.matrix import Matrix

from oracles import exhaustive_hopf_check

ONE = QQ.one()

Z2 = [[0, 1], [1, 0]]
Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]


def s3_table():
    perms = [
        (0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1),
    ]
    return [
        [perms.index(tuple(p[q[x]] for x in range(3))) for q in perms]
        for p in perms
    ]


@pytest.mark.parametrize("build", [
    lambda: group_algebra(QQ, Z2),
    lambda: group_algebra(QQ, Z3),
    lambda: group_algebra(QQ, s3_table()),
    lambda: taft(QQ, 2, 2, QQ.from_int(-1)),
    lambda: nichols16(QQ),
], ids=["Z2", "Z3", "S3", "taft22", "nichols16"])
def test_dual_satisfies_every_axiom(build):
    H = build()
    dual(H)._verify()
    exhaustive_hopf_check(dual(H))
    assert dual(dual(H)).structure_key() == H.structure_key()


# the algebra Q x Q with orthogonal idempotents e0, e1 and unit e0 + e1
DIAG_ALGEBRA = {(0, 0): ((0, 1),), (1, 1): ((1, 1),)}


@pytest.mark.parametrize("unit_acts, g_acts, message", [
    # 1_H must act as the identity: the counit law
    ([[0, 1], [1, 0]], [[0, 1], [1, 0]], "counit"),
    # g . 1 = 1: rho(1) = 1 (x) 1
    ([[1, 0], [0, 1]], [[1, 0], [0, -1]], r"1 \(x\) 1"),
    # an involution fixing 1 that is not an algebra map: multiplicativity
    ([[1, 0], [0, 1]], [[2, -1], [3, -2]], "multiplicative"),
    # an algebra map with g g acting as g, not as 1: coassociativity
    ([[1, 0], [0, 1]], [[1, 0], [1, 0]], "coassociativity"),
])
def test_each_module_algebra_law_maps_to_its_comodule_law(
        unit_acts, g_acts, message):
    H = group_algebra(QQ, Z2)
    action = [Matrix(QQ, unit_acts), Matrix(QQ, g_acts)]
    with pytest.raises(NotModuleAlgebra, match=message):
        action_to_coaction(H, action, DIAG_ALGEBRA, [ONE, ONE])

"""Derivations of a field tower and their rank-two bimodules.

A derivation D of the top field is stored through its values on the
tower generators.  It is evaluated as the ring map
a |-> [[a, D(a)], [0, a]] into Mat_2(L) by ``towers.evaluate``; D(a) is
the corner entry, so additivity and the Leibniz rule come from matrix
arithmetic.  On an algebraic layer the generator value is constrained
by the defining relation (differentiating rel(g) = 0 must give zero),
on a rational function layer it is free.  Purely inseparable relations
make the constraint degenerate, which is what lets nonzero derivations
exist on towers like F_p(t) over F_p(t^p).

Every derivation D presents a rank-two bimodule with left action
a |-> [[a, D(a)], [0, a]], the unique self-extension of the trivial
bimodule attached to D.  These are the building blocks of purely
inseparable split bimodules, and the operators here decide when a
bimodule contains such a block and whether the found block family is
closed under commutators and p-th powers.
"""

from __future__ import annotations

from .bimod import Bimodule, tensor_power, _tower_generators
from .errors import AxiomViolation, FieldMismatch, UnsupportedBase
from .linalg import stack_kernel
from .matrix import Matrix
from .towers import ExtensionField, evaluate, generator_layers


class Derivation:
    """Additive map satisfying the Leibniz rule, zero on the bottom
    scalars, determined by its values on the tower generators."""

    __slots__ = ("field", "values", "images")

    def __init__(self, field, values=None, check=True):
        self.field = field
        supplied = dict(values or {})
        full = {}
        for layer in generator_layers(field):
            if layer in supplied:
                full[layer] = field.coerce(supplied.pop(layer))
            else:
                full[layer] = field.zero()
        if supplied:
            raise FieldMismatch(
                "derivation values given for layers outside the tower"
            )
        self.values = full
        # D is the ring map a |-> [[a, D(a)], [0, a]] into Mat_2(L)
        zero = field.zero()
        self.images = {}
        for layer, dg in full.items():
            g = field.coerce(layer.gen())
            self.images[layer] = Matrix(field, [[g, dg], [zero, g]])
        if check:
            self._verify()

    def _verify(self):
        # each defining relation must map to zero; its diagonal does by
        # construction, the corner is D(rel(g)), which pins the
        # generator value (or forces the lower values to vanish when the
        # relation is inseparable)
        for layer, M in self.images.items():
            if not isinstance(layer, ExtensionField):
                continue
            value = layer.relation.evaluate(
                M, lift=lambda c, _l=layer: self._matrix(c, _l.base)
            )
            if not value.is_zero():
                raise AxiomViolation(
                    "derivation values are inconsistent with the "
                    "defining relation of layer %r" % layer.var
                )

    # ------------------------------------------------------- evaluation

    def apply(self, x):
        return self._matrix(x, self.field).rows[0][1]

    def _matrix(self, x, layer):
        F = self.field
        return evaluate(
            x, layer, self.images,
            lambda c: Matrix.identity(F, 2).scale(F.coerce(c)),
        )

    # -------------------------------------------------- linear structure

    def is_zero(self):
        return not any(self.values.values())

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.field is not other.field:
            return False
        return all(self.values[l] == other.values[l] for l in self.values)

    __hash__ = None

    def __add__(self, other):
        if self.field is not other.field:
            raise FieldMismatch("derivations live over different fields")
        vals = {l: v + other.values[l] for l, v in self.values.items()}
        return Derivation(self.field, vals, check=False)

    def __neg__(self):
        return Derivation(
            self.field, {l: -v for l, v in self.values.items()}, check=False
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        a = self.field.coerce(a)
        return Derivation(
            self.field, {l: a * v for l, v in self.values.items()},
            check=False,
        )

    def __repr__(self):
        parts = [
            "%s -> %r" % (l.var, v) for l, v in self.values.items() if v
        ]
        return "Derivation(%s)" % ("; ".join(parts) or "0")


def commutator(D1: Derivation, D2: Derivation) -> Derivation:
    """D1 after D2 minus D2 after D1; again a derivation (checked)."""
    if D1.field is not D2.field:
        raise FieldMismatch("derivations live over different fields")
    F = D1.field
    vals = {}
    for layer in D1.values:
        g = F.coerce(layer.gen())
        vals[layer] = D1.apply(D2.apply(g)) - D2.apply(D1.apply(g))
    return Derivation(F, vals)


def p_power(D: Derivation) -> Derivation:
    """p-fold composition of D; a derivation in characteristic p
    (checked), undefined otherwise."""
    F = D.field
    p = F.characteristic
    if p == 0:
        raise UnsupportedBase(
            "p-th powers of derivations need positive characteristic"
        )
    vals = {}
    for layer in D.values:
        w = F.coerce(layer.gen())
        for _ in range(p):
            w = D.apply(w)
        vals[layer] = w
    return Derivation(F, vals)


# ------------------------------------------------- derivation bimodules


def m_of_d(D: Derivation) -> Bimodule:
    """Self-extension of the trivial bimodule attached to D: rank two,
    left action a |-> [[a, D(a)], [0, a]]."""
    return Bimodule(D.field, D.images, rank=2, label="derivation block")


def m_of_d_isomorphic(D1: Derivation, D2: Derivation):
    """(flag, a) deciding whether the two derivation bimodules are
    isomorphic, i.e. whether a*D1 = D2 for a unit a (returned)."""
    if D1.field is not D2.field:
        raise FieldMismatch("derivations live over different fields")
    F = D1.field
    if D1.is_zero() or D2.is_zero():
        both = D1.is_zero() and D2.is_zero()
        return both, (F.one() if both else None)
    pivot = None
    for layer, v in D1.values.items():
        if v:
            pivot = layer
            break
    a = D2.values[pivot] / D1.values[pivot]
    if not a:
        return False, None
    if all(a * v == D2.values[l] for l, v in D1.values.items()):
        return True, a
    return False, None


def contains_m_of_d(P: Bimodule, D: Derivation):
    """(flag, witness) deciding whether the bimodule contains a copy of
    the derivation block of D.

    For nonzero D a witness is a pair (v1, v2) of columns with
    phi(a) v1 = a v1 and phi(a) v2 = a v2 + D(a) v1; the conditions are
    imposed at the tower generators, which suffices because both sides
    are homomorphisms on the subfield where they agree.  Independence
    of the pair is automatic: v2 proportional to v1 would force
    D(g) v1 = 0 at every generator.  For D = 0 the block is the trivial
    rank-two bimodule, so the trivial eigenspace must be at least two
    dimensional."""
    if P.field is not D.field:
        raise FieldMismatch("bimodule and derivation fields differ")
    L = P.field
    d = P.rank
    gens = _tower_generators(L)
    shifted = [
        P.phi(g) - Matrix.identity(L, d).scale(g) for g in gens
    ]
    if D.is_zero():
        ker = stack_kernel(shifted)
        if len(ker) >= 2:
            return True, (ker[0], ker[1])
        return False, None
    zero = Matrix.zeros(L, d, d)
    blocks = []
    for g, A in zip(gens, shifted):
        lower = Matrix.identity(L, d).scale(-D.apply(g))
        blocks.append(Matrix.from_blocks(L, [[A, zero], [lower, A]]))
    for w in stack_kernel(blocks):
        v1, v2 = list(w[:d]), list(w[d:])
        if any(v1):
            return True, (v1, v2)
    return False, None


def p_power_compatible(P: Bimodule, D: Derivation) -> bool:
    """Whether the p-th power of a contained derivation block is again
    realized, via its copy inside the (2p-1)-fold tensor power of the
    block.  Vacuously true when the block is not contained."""
    found, _ = contains_m_of_d(P, D)
    if not found:
        return True
    p = P.field.characteristic
    Dp = p_power(D)
    T = tensor_power(m_of_d(D), 2 * p - 1)
    ok, _ = contains_m_of_d(T, Dp)
    return ok

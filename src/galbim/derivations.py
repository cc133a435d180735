"""Derivations of a field tower and their rank-two bimodules.

A derivation D of the top field is stored through its values on the
tower generators.  Every derivation presents a rank-two bimodule M(D)
with left action a |-> [[a, D(a)], [0, a]], the unique self-extension
of the trivial bimodule attached to D, and D keeps M(D) as its
``block``: D's ring map is phi of M(D), evaluated and cached by
``Bimodule.phi``, and D(a) is the corner entry, so additivity and the
Leibniz rule come from matrix arithmetic.  Building the block checks
it: on an algebraic layer the generator value is constrained by the
defining relation (differentiating rel(g) = 0 must give zero), on a
rational function layer it is free.  Purely inseparable relations make
the constraint degenerate, which is what lets nonzero derivations
exist on towers like F_p(t) over F_p(t^p).

The blocks M(D) are the building blocks of purely inseparable split
bimodules, and the operators here decide when a bimodule contains such
a block and whether the found block family is closed under commutators
and p-th powers.
"""

from __future__ import annotations

from .bimod import Bimodule, tensor_power, _tower_generators
from .errors import (AxiomViolation, FieldMismatch, NotAHomomorphism,
                     UnsupportedBase)
from .linalg import stack_kernel
from .matrix import Matrix
from .towers import generator_layers


class Derivation:
    """Additive map satisfying the Leibniz rule, zero on the bottom
    scalars, determined by its values on the tower generators."""

    __slots__ = ("field", "values", "block")

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
        zero = field.zero()
        images = {}
        for layer, dg in full.items():
            g = field.coerce(layer.gen())
            images[layer] = Matrix(field, [[g, dg], [zero, g]])
        try:
            self.block = Bimodule(field, images, rank=2, check=check,
                                  label="derivation block")
        except NotAHomomorphism as err:
            raise AxiomViolation(
                "derivation values are inconsistent with a defining "
                "relation: %s" % err
            ) from None

    def apply(self, x):
        return self.block.phi(x).rows[0][1]

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
    left action a |-> [[a, D(a)], [0, a]]; D's own ``block``."""
    return D.block


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
    a = D2.values[pivot] * (F.one() / D1.values[pivot])
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
    are homomorphisms on the subfield where they agree.  The system is
    block triangular: v1 = W c for a basis W of the trivial eigenspace
    W = ker(phi(g) - g), and then (c, v2) solves one kernel of
    [-D(g) W | phi(g) - g] in dim W + d unknowns.  Independence of the
    pair is automatic: v2 proportional to v1 would force D(g) v1 = 0
    at every generator.  For D = 0 the block is the trivial rank-two
    bimodule, so W must be at least two dimensional."""
    if P.field is not D.field:
        raise FieldMismatch("bimodule and derivation fields differ")
    L = P.field
    gens = _tower_generators(L)
    shifted = [P.phi(g) - P._scalar(g) for g in gens]
    W = stack_kernel(shifted)
    if D.is_zero():
        if len(W) >= 2:
            return True, (W[0], W[1])
        return False, None
    if not W:
        return False, None
    Wm, r = Matrix.from_cols(L, W), len(W)
    blocks = [Matrix.from_blocks(L, [[Wm.scale(-D.apply(g)), A]])
              for g, A in zip(gens, shifted)]
    for w in stack_kernel(blocks):
        if any(w[:r]):
            return True, (Wm.mul_vec(w[:r]), w[r:])
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

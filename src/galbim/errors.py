"""Exception taxonomy shared by every module.

Every raisable condition with a contract behind it gets its own class so
callers can match on the name.
"""


class GalbimError(Exception):
    """Base class for all library errors."""


class FieldMismatch(GalbimError):
    """Operands belong to different fields."""


class NotAField(GalbimError):
    """A computed subspace is not closed under multiplication."""


class Reducible(GalbimError):
    """A polynomial expected to be irreducible splits."""


class DegreeBound(GalbimError):
    """A degree cap (factorization or tower construction) was exceeded."""


class NotAHomomorphism(GalbimError):
    """Proposed generator images violate a defining relation."""


class PrimitiveElementNotFound(GalbimError):
    """The deterministic primitive element search ran out of budget."""


class UnsupportedBase(GalbimError):
    """The operation needs factorization over a base that has none."""


class EigenvalueOutsideField(GalbimError):
    """A triangularization step met an eigenvalue not in the field."""


class ClassificationFailed(GalbimError):
    """classify could not verify the multiple-of-regular structure."""


class NotPrimitiveRoot(GalbimError):
    """The supplied scalar is not a primitive root of unity of the
    required order."""


class NotModuleAlgebra(GalbimError):
    """Action data violates the module-algebra axioms."""


class AxiomViolation(GalbimError):
    """Structure tensors violate a (co)algebra or Hopf axiom."""


class NotInvertible(GalbimError):
    """A map required to be invertible is singular."""


class CoefficientEscapesZ(GalbimError):
    """A polynomial coefficient left the declared subring or center.

    ``verify_central_coefficients`` raises it; integrality certificates
    report escapes as an outcome instead of raising.
    """


class Violated(GalbimError):
    """A divisibility invariant (a degree or a component sum dividing
    dim K) was violated."""


class NotASubgroup(GalbimError):
    """The supplied subset is not a subgroup."""


class ResolutionError(GalbimError):
    """Located data does not resolve the question: a root search, an
    automorphism or embedding enumeration, or a splitting tower came up
    short or inconsistent (supplying more root hints may help)."""

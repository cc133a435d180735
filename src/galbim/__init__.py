"""Exact computation with Galois bimodules over explicitly presented fields.

The package provides, in rough dependency order:

* an exact arithmetic kernel (rationals, prime fields, polynomials,
  rational functions, dense matrices) in ``fieldbase``, ``poly``,
  ``matrix`` and ``factor``;
* explicit field towers, morphisms between them and subfield machinery
  in ``towers``, ``morphisms`` and ``fieldops``;
* bimodules over a field presented by a right rank and a left-action
  homomorphism, with splitting analysis and classification, in
  ``linalg``, ``bimod`` and ``derivations``;
* finite dimensional Hopf algebras, comodule algebras and the invariant
  theoretic operations in ``hopf`` and ``coact``;
* the exception taxonomy in ``errors``.

All arithmetic is exact; no floating point is used anywhere.
"""

from .errors import GalbimError

__all__ = ["GalbimError"]
__version__ = "0.1.0"

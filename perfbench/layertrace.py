"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each public function named in ``TARGETS``
with a wrapper that counts calls, calls that raised, and self time: the
wrapper's span minus the spans of wrapped calls nested inside it.  The
wrapper is bound wherever galbim holds the original, that is in every
``galbim.*`` module that imported it by name and under every alias on
its class (``__rmul__ = __mul__``).  ``uninstall()`` puts the originals
back.  Nothing inside ``src/galbim`` changes, and an untraced pass never
installs anything.
"""

import functools
import sys
import time

# layer -> {metric name: "module:attribute" of the wrapped public call}
TARGETS = {
    "fieldbase": {
        "fp_mul": "fieldbase:PrimeFieldElement.__mul__",
        "fp_inverse": "fieldbase:PrimeFieldElement.inverse",
    },
    "poly": {
        "mul": "poly:Polynomial.__mul__",
        "divmod": "poly:Polynomial.divmod",
        "gcd": "poly:poly_gcd",
        "ext_gcd": "poly:poly_ext_gcd",
        "resultant": "poly:resultant",
        "squarefree": "poly:squarefree_decomposition",
        "ratfunc_mul": "poly:RationalFunction.__mul__",
        "ratfunc_inverse": "poly:RationalFunction.inverse",
    },
    "towers": {
        "ext_mul": "towers:ExtElement.__mul__",
        "ext_inverse": "towers:ExtElement.inverse",
        "extend": "towers:extend",
    },
    "matrix": {
        "mul": "matrix:Matrix.__mul__",
        "rref": "matrix:Matrix.rref",
        "charpoly": "matrix:Matrix.charpoly",
        "minpoly": "matrix:Matrix.minpoly",
        "inverse": "matrix:Matrix.inverse",
    },
    "factor": {
        "factor_poly": "factor:factor_poly",
    },
    "fieldops": {
        "splitting_field": "fieldops:splitting_field",
        "locate_roots": "fieldops:locate_roots",
        "min_poly_over": "fieldops:min_poly_over",
        "subfield_from_vectors": "fieldops:subfield_from_vectors",
    },
    "morphisms": {
        "apply": "morphisms:FieldMorphism.apply",
        "automorphisms_over": "morphisms:automorphisms_over",
        "embeddings_over": "morphisms:embeddings_over",
        "group_table": "morphisms:AutomorphismGroup.table",
    },
    "linalg": {
        "triangularize": "linalg:simultaneous_triangularize",
        "center_kernel": "linalg:center_kernel",
    },
    "bimod": {
        "phi": "bimod:Bimodule.phi",
        "center": "bimod:Bimodule.center",
        "analyze": "bimod:analyze",
        "is_galois": "bimod:is_galois",
        "is_weakly_galois": "bimod:is_weakly_galois",
        "split_analysis": "bimod:split_analysis",
        "classify": "bimod:classify",
        "galois_verdict": "bimod:galois_verdict",
        "split_probe": "bimod:split_probe",
        "min_poly_right": "bimod:min_poly_right",
    },
    "derivations": {
        "apply": "derivations:Derivation.apply",
        "m_of_d": "derivations:m_of_d",
        "contains_m_of_d": "derivations:contains_m_of_d",
        "p_power": "derivations:p_power",
    },
    "hopf": {
        "multiply": "hopf:HopfAlgebra.multiply",
        "taft": "hopf:taft",
        "dual": "hopf:dual",
        "nichols16": "hopf:nichols16",
        "action_to_coaction": "hopf:action_to_coaction",
    },
    "coact": {
        "coact_element": "coact:coact_element",
        "verify_coaction": "coact:verify_coaction",
        "invariants": "coact:invariants",
        "integrality_certificate": "coact:integrality_certificate",
        "verify_psi_xi_tau": "coact:verify_psi_xi_tau",
        "galois_group": "coact:galois_group_of_coaction",
    },
}

# calls whose exceptions are part of normal control flow, counted apart:
# UnsupportedBase refusals of factor_poly used as a probe, partial root
# location, analyses that stop at an obstruction, the probe's DegreeBound
RAISED = ("factor.factor_poly", "fieldops.locate_roots", "bimod.analyze",
          "bimod.split_probe")

MARK = "_perfbench_traced"


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for layer, fns in TARGETS.items():
        for fn in fns:
            key = "%s.%s" % (layer, fn)
            out.append((key + ".calls", "count"))
            out.append((key + ".self_s", "s"))
            if key in RAISED:
                out.append((key + ".raised", "count"))
    return out


def _galbim_holders():
    """Every galbim module and every class defined in one."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "galbim"
                                  or name.startswith("galbim."))]
    classes = []
    for m in mods:
        for value in vars(m).values():
            if (isinstance(value, type)
                    and value.__module__.startswith("galbim")
                    and value not in classes):
                classes.append(value)
    return mods + classes


def installed_wrappers():
    """(holder, attribute) pairs in galbim that hold a tracing wrapper."""
    return [(h, name) for h in _galbim_holders()
            for name, value in vars(h).items() if getattr(value, MARK, False)]


def _resolve(spec):
    module, path = spec.split(":")
    obj = sys.modules["galbim." + module]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


class Tracer:
    def __init__(self, clock):
        self.clock = clock      # seconds, for spans
        self.calls = {}
        self.self_s = {}
        self.raised = {}
        self._nested = [0.0]   # per open span: time inside wrapped children
        self._undo = []

    def _wrap(self, key, fn):
        calls, self_s, raised = self.calls, self.self_s, self.raised
        nested = self._nested
        clock = self.clock
        calls[key] = 0
        self_s[key] = 0.0
        raised[key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[key] += 1
                raise
            finally:
                span = clock() - start
                inner = nested.pop()
                nested[-1] += span
                self_s[key] += span - inner
                calls[key] += 1

        setattr(traced, MARK, True)
        return traced

    def install(self):
        wrappers = {}
        for layer, fns in TARGETS.items():
            for fn, spec in fns.items():
                original = _resolve(spec)
                wrappers[id(original)] = self._wrap("%s.%s" % (layer, fn),
                                                    original)
        # keyed by id: module attributes include unhashable values
        for holder in _galbim_holders():
            for name, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(holder, name, wrapper)
                    self._undo.append((holder, name, value))

    def uninstall(self):
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    def metrics(self):
        out = {}
        for name, _unit in metric_names():
            key, kind = name.rsplit(".", 1)
            out[name] = getattr(self, kind)[key]
        return out

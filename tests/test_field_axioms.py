"""Field axioms in mixed-layer towers: a hypothesis property over the split
probe's shape Q(s)[t]/(t^2 - s)[q]/(q^2 - t), the inseparable
GF(3)(t)[u]/(u^3 - t) and Q(i)(sqrt2)(cbrt3).

Elements are drawn sparse (each coordinate over the bottom field is zero
with probability at least 1/2), because that is where the zero tests and
the zero operands of sums matter.  An operand from a lower layer must
give the same result as its coerced form."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from galbim.fieldbase import GF, QQ
from galbim.poly import Polynomial
from galbim.towers import (
    RationalFunctionField,
    coords_over,
    extend,
    from_coords_over,
)


def _probe_tower():
    Fs = RationalFunctionField(QQ, "s")
    Lt = extend(Fs, Polynomial(Fs, [-Fs.gen(), 0, 1]), "t", validate=False)
    Lq = extend(Lt, Polynomial(Lt, [-Lt.gen(), 0, 1]), "q", validate=False)
    return Lq, Fs, [Lt, Fs]


def _inseparable_tower():
    Ft = RationalFunctionField(GF(3), "t")
    Lu = extend(Ft, Polynomial(Ft, [-Ft.gen(), 0, 0, 1]), "u",
                validate=False)
    return Lu, Ft, [Ft]


def _number_tower():
    Qi = extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
    Qi2 = extend(Qi, Polynomial(Qi, [-2, 0, 1]), "r")
    K = extend(Qi2, Polynomial(Qi2, [-3, 0, 0, 1]), "c")
    return K, QQ, [Qi2, Qi, QQ]


TOWERS = {
    "Q(s)(sqrt s)(s^(1/4))": _probe_tower(),
    "GF3(t)(t^(1/3))": _inseparable_tower(),
    "Q(i)(sqrt2)(cbrt3)": _number_tower(),
}

small = st.integers(-3, 3)


def _bottom(bottom):
    """Nonzero-biased elements of the bottom field; ``_sparse`` adds the
    zeros."""
    if bottom is QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    k = bottom.coefficient_field

    def ratfunc(parts):
        num, den = parts
        return bottom.coerce(Polynomial(k, num)) / bottom.coerce(
            Polynomial(k, [den, 1])
        )

    return st.tuples(st.lists(small, max_size=3), small).map(ratfunc)


def _sparse(coefficient):
    return st.tuples(st.booleans(), coefficient).map(
        lambda drawn: 0 if drawn[0] else drawn[1]
    )


def _elements(field, bottom):
    n = len(coords_over(field, field.zero(), bottom))
    return st.lists(_sparse(_bottom(bottom)), min_size=n, max_size=n).map(
        lambda coords: from_coords_over(field, coords, bottom)
    )


def _lower(layers, bottom):
    """An element of one of the tower's lower layers, in that layer."""
    return st.sampled_from(layers).flatmap(
        lambda layer: _elements(layer, bottom)
    )


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_field_axioms_in_mixed_layer_towers(name):
    field, bottom, layers = TOWERS[name]
    elements = _elements(field, bottom)
    zero, one = field.zero(), field.one()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(x=elements, y=elements, z=elements, a=_lower(layers, bottom))
    def check(x, y, z, a):
        for e in (x, y, z):
            assert bool(e) == any(coords_over(field, e, bottom))
        assert x + zero == x and zero + x == x
        assert x + 0 == x and 0 + x == x
        assert x - x == zero and not x - x
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == one
        lifted = field.coerce(a)
        assert bool(lifted) == bool(a)
        assert x + a == x + lifted and a + x == lifted + x
        assert x - a == x - lifted and a - x == lifted - x
        assert x * a == x * lifted and a * x == lifted * x
        if a:
            assert x / a == x / lifted

    check()


def test_sparse_draws_include_zero_coordinates():
    field, bottom, _ = TOWERS["Q(s)(sqrt s)(s^(1/4))"]
    seen = []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(x=_elements(field, bottom))
    def collect(x):
        seen.extend(bool(c) for c in coords_over(field, x, bottom))

    collect()
    assert seen.count(True) > 0 and seen.count(False) >= len(seen) // 3

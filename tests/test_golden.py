"""The records of the golden corpus match their recorded lines."""

import golden_analyze
import golden_factor
import golden_tensor

from galbim import bimod, derivations


def test_analyze_matches_golden_records():
    assert golden_analyze.records() == \
        golden_analyze.GOLDEN.read_text().splitlines()


def test_tensor_phi_matches_golden_records():
    assert golden_tensor.records() == \
        golden_tensor.GOLDEN.read_text().splitlines()


def test_factor_matches_golden_records():
    assert golden_factor.records() == \
        golden_factor.GOLDEN.read_text().splitlines()


def test_unchecked_tensor_products_pass_the_check():
    # tensor builds its product unchecked; on the golden inputs the same
    # images pass Bimodule's check and give the same action
    for _label, D, k, samples in golden_tensor.blocks():
        M = derivations.m_of_d(D)
        T = bimod.tensor_power(M, k)
        checked = bimod.Bimodule(T.field, T.images, rank=T.rank,
                                 base=T.base, check=True)
        assert checked.images == T.images
        assert all(checked.phi(a) == T.phi(a) for a in samples)

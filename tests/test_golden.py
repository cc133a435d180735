"""The records of the golden corpus match their recorded lines."""

import golden_analyze
import golden_factor
import golden_tensor


def test_analyze_matches_golden_records():
    assert golden_analyze.records() == \
        golden_analyze.GOLDEN.read_text().splitlines()


def test_tensor_phi_matches_golden_records():
    assert golden_tensor.records() == \
        golden_tensor.GOLDEN.read_text().splitlines()


def test_factor_matches_golden_records():
    assert golden_factor.records() == \
        golden_factor.GOLDEN.read_text().splitlines()

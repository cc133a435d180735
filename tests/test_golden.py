"""The analyses of the golden corpus match their recorded lines."""

from golden_analyze import GOLDEN, records


def test_analyze_matches_golden_records():
    assert records() == GOLDEN.read_text().splitlines()

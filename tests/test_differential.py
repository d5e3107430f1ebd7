"""The differential hash lines equal the committed differential.expected."""

from differential import EXPECTED, summary_lines


def test_outcome_hashes_match_the_recorded_lines():
    # every decode and membership outcome over differential.py's grids, hashed;
    # a change that alters outcomes on purpose re-records the file
    assert summary_lines() == EXPECTED.read_text().splitlines()

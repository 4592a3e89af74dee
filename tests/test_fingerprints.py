"""Every catalog algebra, every enumerated model up to seven elements and
nine catalog products give the serialized form, report JSON and Gelfand
verdict recorded in tests/fingerprints.txt (see tests/fingerprints.py for
the format and how to regenerate it)."""

from pathlib import Path

import pytest

from fingerprints import FIXTURE, GROUPS, lines

RECORDED = (Path(__file__).parent / FIXTURE).read_text().splitlines()


@pytest.mark.parametrize("group", GROUPS)
def test_fingerprints_match_the_fixture(group):
    expected = [line for line in RECORDED if line.split(" ", 1)[0] == group]
    got = lines(group)
    for old, new in zip(expected, got):
        assert new == old, f"{group} {old.split()[1]} moved"
    assert len(got) == len(expected), f"{group}: {len(got)} algebras, {len(expected)} recorded"

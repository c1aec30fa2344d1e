"""The compact engine's output, pinned bit for bit (see
``tests/compact_pin.py``): payload bytes, subproblem reports and search
statistics on 44 service-shaped inputs."""

from tests.compact_pin import PIN_INPUTS, mismatches, pinned


def test_pin_covers_every_input():
    assert set(pinned()) == set(PIN_INPUTS)


def test_compact_output_matches_the_pin():
    assert mismatches() == []

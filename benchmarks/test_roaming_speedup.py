"""Bench: the section IV.C roaming study (speedup 3.39)."""

from repro.experiments import roaming


def test_roaming_speedup():
    assert roaming.measure().speedup > 3.0

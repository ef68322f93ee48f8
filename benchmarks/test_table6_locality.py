"""Bench: Table VI (NFS text-search locality gain)."""

from repro.experiments import table6


def test_table6_locality():
    sodee = table6.measure(table6.SYSTEMS["SODEE"])
    j2 = table6.measure(table6.SYSTEMS["JESSICA2"])
    gain = lambda r: (r[0] - r[1]) / r[1] * 100.0
    assert gain(sodee) > 15.0
    assert abs(gain(j2)) < 2.0

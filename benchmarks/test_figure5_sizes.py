"""Bench: Fig. 5's class-size comparison."""

from repro.experiments import figure5


def test_figure5_sizes():
    sizes = figure5.sizes()
    assert sizes["original"] < sizes["checking"] < sizes["faulting"]

"""Bench: Table V (object faulting vs status checking)."""

from repro.experiments import table5


def test_table5_objectfault():
    for label, row in table5.measure().items():
        base, faulting, checking, slow_f, slow_c = row
        assert abs(slow_f) < 1.0, label     # faulting ~ free
        assert slow_c > 20.0, label         # checking pays per access

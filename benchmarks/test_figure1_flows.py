"""Bench: Fig. 1's three SOD execution flows."""

from repro.experiments import figure1


def test_figure1_flows():
    t = figure1.run()
    assert all(row[2] for row in t.rows)      # all flows correct
    assert t.rows[1][4] > 0 and t.rows[2][4] > 0  # latency hiding

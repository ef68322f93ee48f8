"""Bench: Table VII (iPhone migration latency vs bandwidth)."""

from repro.experiments import table7


def test_table7_bandwidth():
    recs = {bw: table7.migrate_once(bw)[0] for bw in (50, 764)}
    assert recs[50].latency > 2 * recs[764].latency
    assert (abs(recs[50].capture_time - recs[764].capture_time)
            < 0.2 * recs[50].capture_time)

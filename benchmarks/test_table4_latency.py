"""Bench: Table IV (migration latency breakdown)."""

from repro.experiments import table4


def test_table4_latency():
    # SOD's latency is heap-size independent; G-JavaMPI's is not.
    sod_totals = [table4.breakdown("SOD", wl)[0]
                  for wl in ("Fib", "NQ", "FFT", "TSP")]
    assert max(sod_totals) < 2 * min(sod_totals)
    assert (table4.breakdown("G-JavaMPI", "FFT")[0]
            > 10 * table4.breakdown("G-JavaMPI", "Fib")[0])

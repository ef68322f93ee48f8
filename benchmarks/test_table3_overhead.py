"""Bench: Table III (migration overhead per system)."""

from repro.experiments import table3


def test_table3_overhead():
    # Headline: SODEE lowest on Fib/NQ/FFT; TSP flips to eager copy.
    for wl in ("Fib", "NQ", "FFT"):
        sod = table3.overhead("SODEE", wl)[0]
        assert all(sod < table3.overhead(o, wl)[0]
                   for o in ("G-JavaMPI", "JESSICA2", "Xen"))
    assert (table3.overhead("G-JavaMPI", "TSP")[0]
            < table3.overhead("SODEE", "TSP")[0])

"""Bench: Table I (program characteristics)."""

from repro.experiments import table1


def test_table1_characteristics():
    # F(FFT) must exceed the paper's 64 MB bound; stack heights real.
    h_fft, f_fft = table1.measure("FFT")
    assert f_fft > 64 * 1024 * 1024
    assert h_fft == 4

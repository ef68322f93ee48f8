"""Unit-helper tests."""

import pytest

from repro import units


def test_kb_mb_gb():
    assert units.kb(1) == 1024
    assert units.mb(1) == 1024 ** 2
    assert units.gb(1) == 1024 ** 3
    assert units.mb(0.5) == 512 * 1024


def test_network_rates_use_decimal_bits():
    assert units.kbps(8) == 1000.0
    assert units.gbps(1) == 125_000_000.0


def test_time_helpers():
    assert units.us(1) == pytest.approx(1e-6)
    assert units.ms(250) == pytest.approx(0.25)
    assert units.to_ms(0.25) == pytest.approx(250)


def test_fmt_bytes_scales():
    assert units.fmt_bytes(512) == "512 B"
    assert units.fmt_bytes(64 * 1024) == "64.0 KB"
    assert units.fmt_bytes(units.mb(3)) == "3.0 MB"
    assert units.fmt_bytes(units.gb(2)) == "2.0 GB"


def test_fmt_bytes_huge_stays_gb():
    assert units.fmt_bytes(units.gb(4096)).endswith("GB")

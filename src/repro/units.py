"""Unit helpers: byte sizes, bandwidths and durations.

All simulated durations in this package are plain ``float`` **seconds**;
all data sizes are ``int`` **bytes**; all bandwidths are ``float``
**bytes per second**.  These helpers exist so call sites read like the
paper ("1 Gbps link", "600 MB file", "30 us per GetLocal call").
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def kb(n: float) -> int:
    """``n`` kibibytes, in bytes."""
    return int(n * KB)


def mb(n: float) -> int:
    """``n`` mebibytes, in bytes."""
    return int(n * MB)


def gb(n: float) -> int:
    """``n`` gibibytes, in bytes."""
    return int(n * GB)


def kbps(n: float) -> float:
    """``n`` kilobits/s, in bytes/s (network convention: 1 kb = 1000 bits)."""
    return n * 1000.0 / 8.0


def gbps(n: float) -> float:
    """``n`` gigabits/s, in bytes/s."""
    return n * 1_000_000_000.0 / 8.0


def us(n: float) -> float:
    """``n`` microseconds, in seconds."""
    return n * 1e-6


def ms(n: float) -> float:
    """``n`` milliseconds, in seconds."""
    return n * 1e-3


def to_ms(seconds: float) -> float:
    """Seconds -> milliseconds (for table printing)."""
    return seconds * 1e3


def fmt_bytes(n: int) -> str:
    """Human-readable byte count, e.g. ``fmt_bytes(65536) == '64.0 KB'``."""
    x = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if x < 1024.0 or unit == "GB":
            return f"{x:.1f} {unit}" if unit != "B" else f"{int(x)} B"
        x /= 1024.0
    raise AssertionError("unreachable")

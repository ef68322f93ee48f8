"""Seeded byte-mutation fuzz over everything that parses pipe bytes.

The wire decoder's contract is totality: *any* byte string either
decodes or raises :class:`WireError` — never ``UnicodeDecodeError``,
``RecursionError`` or ``TypeError`` (each of which used to kill a worker
with a raw traceback).  The two structured readers on top of it —
``capture_from_wire`` and the real worker's ``restore_image`` — extend
the contract with :class:`MigrationError`.  Mutations of valid
encodings (truncate / flip / append / splice random bytes) probe far
more of the grammar than random bytes alone.

``python tests/test_wire_fuzz.py SEED N`` runs a longer campaign (CI
pins the seed); the pytest entry points run a short one.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from repro.errors import MigrationError
from repro.runtime import wire
from repro.runtime.real import _Worker
from repro.runtime.wire import WireError

SEED = 15

CORPUS_VALUES = [
    None, True, -1, 2 ** 70, 1.5, "héllo", b"\x00\xff",
    ("@ref", 3, "node0"), [1, [2, [3, []]]],
    {("App", "n"): ("@cached", 12345), "k": [1.0, None]},
    ("run", [(0, "Fib", [12]), (1, "TSP", [5])]),
]


def mutate(rng: random.Random, data: bytes) -> bytes:
    kind = rng.randrange(4)
    if kind == 0 and data:                      # truncate
        return data[:rng.randrange(len(data))]
    if kind == 1 and data:                      # flip 1-3 bytes
        buf = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
        return bytes(buf)
    if kind == 2:                               # append garbage
        return data + rng.randbytes(rng.randint(1, 8))
    pos = rng.randrange(len(data) + 1)          # splice random bytes in
    return data[:pos] + rng.randbytes(rng.randint(1, 6)) + data[pos + 1:]


def _capture_bytes() -> bytes:
    from repro.migration.state import CapturedFrame, CapturedState
    state = CapturedState(
        frames=[CapturedFrame("App", "work", 9, 12, [5, None]),
                CapturedFrame("App", "step", 4, 7, [1, ("@ref", 2, "n0")])],
        statics={("App", "n"): 8, ("App", "t"): "tag"},
        class_names=["App"], home_node="n0", return_to=("App", "work", 3),
        thread_name="main", namespace="req1")
    return wire.capture_to_wire(state)


def _image_bytes(worker: _Worker) -> bytes:
    """A real mid-run eager image, as a worker ships it."""
    thread = worker.machine.spawn("TSP", "main", [5], namespace="rq0@w")
    assert worker.machine.run(thread, quantum=3000) != "finished"
    return worker.capture_image(0, thread)


def campaign(seed: int, n: int) -> dict:
    """``n`` mutations per target; returns outcome counts.  Any
    exception outside the contract propagates (the failure)."""
    rng = random.Random(f"wire-fuzz:{seed}")
    worker = _Worker(None, "w", "paper", 100_000)
    image = _image_bytes(worker)
    worker.restore_image(image)  # the unmutated image restores
    targets = [
        ("decode", [wire.encode(v) for v in CORPUS_VALUES], wire.decode),
        ("capture", [_capture_bytes()], wire.capture_from_wire),
        ("image", [image], worker.restore_image),
    ]
    counts = {}
    for name, corpus, parse in targets:
        ok = refused = 0
        for _ in range(n):
            data = mutate(rng, rng.choice(corpus))
            try:
                parse(data)
                ok += 1
            except (WireError, MigrationError):
                refused += 1
        counts[name] = (ok, refused)
    return counts


def test_mutated_bytes_only_raise_contract_errors():
    t0 = time.perf_counter()
    counts = campaign(SEED, 1500)
    assert time.perf_counter() - t0 < 60.0
    for name, (ok, refused) in counts.items():
        assert refused > 0, f"{name}: no mutation was ever refused"


def test_decode_refuses_the_three_historical_crashes():
    with pytest.raises(WireError, match="UTF-8"):
        wire.decode(b"S\x00\x00\x00\x01\xff")
    with pytest.raises(WireError, match="nesting"):
        wire.decode(b"L\x00\x00\x00\x01" * 5000 + b"N")
    with pytest.raises(WireError, match="unhashable"):
        wire.decode(b"M\x00\x00\x00\x01" + wire.encode([1]) + b"N")
    deep = None
    for _ in range(wire.MAX_DEPTH):
        deep = [deep]
    assert wire.decode(wire.encode(deep)) == deep


if __name__ == "__main__":
    seed, n = int(sys.argv[1]), int(sys.argv[2])
    print(f"wire fuzz seed={seed} n={n}: {campaign(seed, n)}")

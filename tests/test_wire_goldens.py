"""Byte-stability goldens for the cross-process wire format.

The real-parallel backend ships SOD captures, class-digest tokens, and
``@cached`` default-static markers between OS processes as
:mod:`repro.runtime.wire` bytes.  Two builds of this repo must agree
on those bytes — an old worker and a new control plane may meet across
a rolling restart, and the class-token scheme is *content-addressed*,
so a silent codec change would make every token mismatch look like
classpath divergence.  These fixtures pin the encoding: each golden is
the hex dump of a representative value, compared byte-for-byte.

To re-bless after an *intentional* format change (bump the wire magic
when you do)::

    REPRO_BLESS_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_wire_goldens.py -q
"""

from __future__ import annotations

import os
import textwrap
from pathlib import Path

import pytest

from repro.migration.state import (CACHED_TAG, CapturedFrame, CapturedState,
                                   fingerprint)
from repro.runtime import wire

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

BLESS = os.environ.get("REPRO_BLESS_GOLDENS") == "1"


def _value_zoo():
    """One value covering every tag and the canonical-form edge cases
    (zero int, negative int, -0.0, empty containers, tuple dict keys)."""
    return (
        None, True, False,
        0, 1, -1, 255, -256, 2 ** 64, -(2 ** 64),
        0.0, -0.0, 1.5, -2.75e300,
        "", "ascii", "snowman ☃", "astral \U0001f40d",
        b"", b"\x00\xff\x7f",
        (), (1, (2, (3,))),
        [], [1, "two", 3.0],
        {}, {("Cls", "field"): 42, "plain": [True, None]},
    )


def _sample_capture() -> CapturedState:
    """A hand-built shipment exercising every shipment feature: a
    caller and a top frame, object descriptors in locals and statics,
    a string static, and a namespace tag."""
    caller = CapturedFrame(
        class_name="Fib", method_name="run", pc=4, raw_pc=7,
        locals=[10, ("@ref", 3, "node0"), None])
    top = CapturedFrame(
        class_name="Fib", method_name="fib", pc=2, raw_pc=2,
        locals=[9, 34, 1.5, "memo"])
    return CapturedState(
        frames=[caller, top],
        statics={("Fib", "calls"): 1024,
                 ("Fib", "table"): ("@ref", 11, "node1"),
                 ("Fib", "tag"): "warm"},
        class_names=["Fib"], home_node="node0", return_to="node0",
        thread_name="req#5:Fib(9,)", namespace="rq5")


def _check_golden(name: str, data: bytes) -> None:
    golden = GOLDEN_DIR / f"wire_{name}.hex"
    text = "\n".join(textwrap.wrap(data.hex(), 64)) + "\n"
    if BLESS:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_text(text)
        pytest.skip(f"re-blessed {golden.name}")
    assert golden.exists(), (
        f"missing golden {golden}; generate with REPRO_BLESS_GOLDENS=1")
    expected = golden.read_text()
    assert text == expected, (
        f"wire bytes for {name} diverged from the pinned format "
        f"(old workers would reject new frames); if intentional, "
        f"re-bless and bump the format magic")


def test_value_zoo_bytes_are_pinned():
    _check_golden("values", wire.encode(_value_zoo()))


def test_value_zoo_round_trips():
    zoo = _value_zoo()
    assert wire.decode(wire.encode(zoo)) == zoo


def test_captured_state_bytes_are_pinned():
    _check_golden("capture", wire.capture_to_wire(_sample_capture()))


def test_captured_state_round_trips():
    state = _sample_capture()
    back = wire.capture_from_wire(wire.capture_to_wire(state))
    assert back == state  # dataclass equality: frames, statics, tags


def test_cached_marker_survives_the_wire_byte_exactly():
    """The real backend's thief fingerprint-checks the ``@cached``
    markers of an eager image's statics table; a codec that perturbed
    them (e.g. int widening, tuple -> list) would refuse every image."""
    statics = {("Fib", "limit"): (CACHED_TAG, fingerprint(90))}
    back = wire.decode(wire.encode({"statics": statics}))["statics"]
    assert back == statics
    assert type(back[("Fib", "limit")]) is tuple


def test_class_token_bytes_are_pinned():
    _check_golden("token", wire.class_token("Fib", b"payload-bytes-v1"))


def test_class_token_is_content_addressed():
    t = wire.class_token("Fib", b"payload")
    assert len(t) == wire.CLASS_TOKEN_LEN
    assert t == wire.class_token("Fib", b"payload")
    assert t != wire.class_token("Fib", b"payload2")
    assert t != wire.class_token("Fib2", b"payload")
    # Name/payload boundary is length-framed, not concatenation-ambiguous.
    assert wire.class_token("AB", b"C") != wire.class_token("A", b"BC")


def test_real_classfile_tokens_match_across_builders():
    """Two independently built classpaths for the same mix derive
    identical tokens — the invariant cross-process migration rests on."""
    from repro.runtime.real import _classfile_payload
    from repro.workloads.mixes import MIXES, serve_classpath

    names = MIXES["paper"].programs()
    a = {c: wire.class_token(c, _classfile_payload(cf))
         for c, cf in serve_classpath(names).items()}
    b = {c: wire.class_token(c, _classfile_payload(cf))
         for c, cf in serve_classpath(names).items()}
    assert a == b and a


def test_decode_rejects_malformed_frames():
    with pytest.raises(wire.WireError):
        wire.decode(b"")
    with pytest.raises(wire.WireError):
        wire.decode(b"Z")
    with pytest.raises(wire.WireError):
        wire.decode(wire.encode(1) + b"\x00")  # trailing garbage
    with pytest.raises(wire.WireError):
        wire.decode(b"S\x00\x00\x00\x05ab")  # truncated payload
    with pytest.raises(wire.WireError):
        wire.encode(object())
    with pytest.raises(wire.WireError):
        wire.capture_from_wire(wire.encode(("not", "a", "capture")))


def test_wire_goldens_directory_is_complete():
    if BLESS:
        pytest.skip("blessing run")
    for name in ("values", "capture", "token"):
        path = GOLDEN_DIR / f"wire_{name}.hex"
        assert path.exists() and path.stat().st_size > 0, path

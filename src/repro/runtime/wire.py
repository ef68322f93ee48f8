"""Canonical byte codec for everything that crosses a process boundary.

The virtual backend's "wire format" is modeled: tagged host tuples
(``("@ref", oid, node)``, ``("I", class, fields)``) annotated with
*nominal* byte counts.  The real-parallel backend makes the bytes real
— eager images and class-digest tokens travel over OS pipes — so
the format needs an actual serializer, and one stable enough to pin
with golden fixtures (``tests/test_wire_goldens.py``).

Design constraints:

* **Self-describing and total** over the value domain the migration
  layer produces: ``None``/bool/int/float/str/bytes and
  tuple/list/dict compositions thereof (dict keys are arbitrary
  encodable values — the statics table is keyed by ``(class, field)``
  tuples).  The decoder is total the other way too: *any* byte string
  either decodes or raises :class:`WireError` — never another
  exception, never unbounded recursion (nesting deeper than
  :data:`MAX_DEPTH` is refused; no producer here nests past ~6).
* **Canonical**: one value, one byte string.  Ints are
  minimal-length two's-complement; floats are exactly 8 bytes
  (IEEE-754 big-endian, so ``-0.0`` and NaN payloads round-trip);
  insertion order of dicts is preserved (both ends build tables in
  deterministic order, and order *is* part of the modeled format).
* **No host pickling** of guest-visible state: pickle's output varies
  by protocol/version and would make the golden fixtures meaningless
  (and a worker must never unpickle attacker-shaped guest values).

The grammar (1-byte tag, big-endian fixed ints):

====  =======================================================
tag   payload
====  =======================================================
``N``  None
``T``  True
``F``  False
``I``  u32 length + minimal two's-complement signed bytes
``D``  8-byte IEEE-754 double
``S``  u32 length + UTF-8 bytes
``B``  u32 length + raw bytes
``U``  u32 count + encoded items (tuple)
``L``  u32 count + encoded items (list)
``M``  u32 count + encoded (key, value) pairs (dict)
====  =======================================================
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, List, Tuple

__all__ = ["encode", "decode", "class_token", "CLASS_TOKEN_LEN",
           "WireError", "capture_to_wire", "capture_from_wire"]


class WireError(ValueError):
    """Malformed wire bytes or an unencodable value."""


_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

#: byte length of a content-addressed class token: 4-byte magic +
#: 20 digest bytes (matches the modeled ``CLASS_TOKEN_BYTES`` = 24 the
#: engine charges for a repeat class shipment)
CLASS_TOKEN_LEN = 24

_TOKEN_MAGIC = b"RCT1"

#: deepest container nesting :func:`decode` accepts
MAX_DEPTH = 64


def encode(value: Any) -> bytes:
    """Serialize ``value`` to canonical bytes."""
    out: List[bytes] = []
    _enc(value, out)
    return b"".join(out)


def _enc(v: Any, out: List[bytes]) -> None:
    # bool before int: bool is an int subclass and must keep its tag
    if v is None:
        out.append(b"N")
    elif v is True:
        out.append(b"T")
    elif v is False:
        out.append(b"F")
    elif isinstance(v, int):
        if v == 0:
            body = b""
        else:
            body = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
        out.append(b"I" + _U32.pack(len(body)) + body)
    elif isinstance(v, float):
        out.append(b"D" + _F64.pack(v))
    elif isinstance(v, str):
        body = v.encode("utf-8")
        out.append(b"S" + _U32.pack(len(body)) + body)
    elif isinstance(v, bytes):
        out.append(b"B" + _U32.pack(len(v)) + v)
    elif isinstance(v, tuple):
        out.append(b"U" + _U32.pack(len(v)))
        for item in v:
            _enc(item, out)
    elif isinstance(v, list):
        out.append(b"L" + _U32.pack(len(v)))
        for item in v:
            _enc(item, out)
    elif isinstance(v, dict):
        out.append(b"M" + _U32.pack(len(v)))
        for k, item in v.items():
            _enc(k, out)
            _enc(item, out)
    else:
        raise WireError(f"cannot wire-encode {type(v).__name__}: {v!r}")


def decode(data: bytes) -> Any:
    """Parse canonical bytes back into the value.  Rejects trailing
    garbage — a truncated or over-long frame is a protocol bug, not
    something to paper over."""
    value, pos = _dec(data, 0, 0)
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after value")
    return value


def _dec(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise WireError("truncated wire value")
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"D":
        if pos + 8 > len(data):
            raise WireError("truncated float")
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag in (b"I", b"S", b"B"):
        if pos + 4 > len(data):
            raise WireError("truncated length")
        n = _U32.unpack_from(data, pos)[0]
        pos += 4
        if pos + n > len(data):
            raise WireError("truncated payload")
        body = data[pos:pos + n]
        pos += n
        if tag == b"I":
            return int.from_bytes(body, "big", signed=True), pos
        if tag == b"S":
            try:
                return body.decode("utf-8"), pos
            except UnicodeDecodeError as e:
                raise WireError(f"bad UTF-8 in string: {e}") from e
        return body, pos
    if tag in (b"U", b"L", b"M"):
        if pos + 4 > len(data):
            raise WireError("truncated count")
        if depth >= MAX_DEPTH:
            raise WireError(f"nesting deeper than {MAX_DEPTH}")
        depth += 1
        n = _U32.unpack_from(data, pos)[0]
        pos += 4
        if tag == b"M":
            d = {}
            for _ in range(n):
                k, pos = _dec(data, pos, depth)
                v, pos = _dec(data, pos, depth)
                try:
                    d[k] = v
                except TypeError as e:  # a list/dict where a key goes
                    raise WireError(f"unhashable map key: {e}") from e
            return d, pos
        items = []
        for _ in range(n):
            v, pos = _dec(data, pos, depth)
            items.append(v)
        return (tuple(items) if tag == b"U" else items), pos
    raise WireError(f"unknown wire tag {tag!r} at offset {pos - 1}")


# -- CapturedState <-> wire ----------------------------------------------------
#
# The SOD shipment unit serialized for a real process boundary (and
# pinned by the golden fixtures): one ``("F", ...)`` row per activation
# record, statics as the migration layer encoded them.

_CAPTURE_MAGIC = "RCS2"


def capture_to_wire(state: Any) -> bytes:
    """Serialize a :class:`repro.migration.state.CapturedState`."""
    from repro.migration.state import CapturedFrame
    frames: List[Any] = []
    for f in state.frames:
        if not isinstance(f, CapturedFrame):
            raise WireError(f"not a capturable frame: {f!r}")
        frames.append(("F", f.class_name, f.method_name, f.pc,
                       f.raw_pc, list(f.locals)))
    return encode((_CAPTURE_MAGIC, frames, dict(state.statics),
                   list(state.class_names), state.home_node,
                   state.return_to, state.thread_name, state.namespace))


def capture_from_wire(data: bytes) -> Any:
    """Inverse of :func:`capture_to_wire`."""
    from repro.migration.state import CapturedFrame, CapturedState
    v = decode(data)
    try:
        (magic, frames_enc, statics, class_names, home_node, return_to,
         thread_name, namespace) = v
        if magic != _CAPTURE_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        frames: List[Any] = []
        for row in frames_enc:
            if row[0] != "F":
                raise ValueError(f"unknown frame row tag {row[0]!r}")
            frames.append(CapturedFrame(
                class_name=row[1], method_name=row[2], pc=row[3],
                raw_pc=row[4], locals=list(row[5])))
        return CapturedState(
            frames=frames, statics=statics, class_names=list(class_names),
            home_node=home_node, return_to=return_to,
            thread_name=thread_name, namespace=namespace)
    except (TypeError, ValueError, IndexError) as e:
        # well-formed wire bytes, but not the shape a capture has
        raise WireError(f"not a wire-encoded CapturedState: {e}") from e


def class_token(name: str, payload: bytes) -> bytes:
    """Content-addressed class-shipment token: what a repeat offload
    ships instead of the class file when the destination's classpath
    already holds it (the engine's ``CLASS_TOKEN_BYTES`` = 24 made
    real).  ``payload`` is any canonical byte rendering of the class
    definition; both sides must derive it the same way — the receiver
    recomputes the token over its own copy and refuses a mismatch.
    """
    digest = hashlib.sha256(
        _TOKEN_MAGIC + _U32.pack(len(name)) + name.encode("utf-8")
        + payload).digest()
    return _TOKEN_MAGIC + digest[:CLASS_TOKEN_LEN - len(_TOKEN_MAGIC)]

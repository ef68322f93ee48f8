"""Checkpoint persistence: captured state to/from JSON.

SOD's captured segments are small and self-describing, which makes them
natural *checkpoints*: a frozen task can be written to disk (or a queue)
and resumed later on any node that can reach the home heap.  This module
serializes :class:`~repro.migration.state.CapturedState` to a stable
JSON document and back — the groundwork for the paper's "task
distribution policies" future work (section VI) where segments outlive
transport connections.

Encoding notes:

* the wire encodings produced by capture are already transport-shaped
  (primitives + ``("@ref", oid, node)`` descriptors); JSON needs only a
  tag for tuples vs lists and for non-finite floats;
* documents carry a format version for forward compatibility.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Tuple

from repro.errors import MigrationError
from repro.migration.state import (CapturedFrame, CapturedState,
                                   FrameMarker)

FORMAT_VERSION = 1


def _enc(v: Any) -> Any:
    """Encode one captured value into JSON-safe form."""
    if isinstance(v, tuple):
        return {"@t": [_enc(x) for x in v]}
    if isinstance(v, float):
        if math.isnan(v) or math.isinf(v):
            return {"@f": repr(v)}
        return v
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    raise MigrationError(
        f"value {v!r} is not serializable (was the state captured with "
        f"encode_value?)")


def _dec(v: Any) -> Any:
    """Inverse of :func:`_enc`."""
    if isinstance(v, dict):
        if "@t" in v:
            return tuple(_dec(x) for x in v["@t"])
        if "@f" in v:
            return float(v["@f"])
        raise MigrationError(f"bad checkpoint value {v!r}")
    return v


def state_to_json(state: CapturedState, indent: int | None = None) -> str:
    """Serialize a captured segment to a JSON checkpoint document."""
    doc = {
        "format": FORMAT_VERSION,
        "home_node": state.home_node,
        "return_to": state.return_to,
        "thread_name": state.thread_name,
        "namespace": state.namespace,
        "class_names": list(state.class_names),
        "statics": [
            {"class": c, "field": f, "value": _enc(v)}
            for (c, f), v in sorted(state.statics.items())
        ],
        # A delta capture's elided frames are written as marker rows,
        # as on the wire: resuming such a checkpoint needs the ledger
        # that retains them.
        "frames": [
            {"marker": fr.fp} if isinstance(fr, FrameMarker) else {
                "class": fr.class_name,
                "method": fr.method_name,
                "pc": fr.pc,
                "raw_pc": fr.raw_pc,
                "locals": [_enc(v) for v in fr.locals],
            }
            for fr in state.frames
        ],
    }
    return json.dumps(doc, indent=indent)


def state_from_json(text: str) -> CapturedState:
    """Rebuild a :class:`CapturedState` from a checkpoint document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MigrationError(f"bad checkpoint JSON: {e}") from e
    if doc.get("format") != FORMAT_VERSION:
        raise MigrationError(
            f"unsupported checkpoint format {doc.get('format')!r}")
    frames = [
        FrameMarker(fp=f["marker"]) if "marker" in f else CapturedFrame(
            class_name=f["class"], method_name=f["method"],
            pc=int(f["pc"]), raw_pc=int(f["raw_pc"]),
            locals=[_dec(v) for v in f["locals"]],
        )
        for f in doc["frames"]
    ]
    if not frames:
        raise MigrationError("checkpoint has no frames")
    statics: Dict[Tuple[str, str], Any] = {
        (s["class"], s["field"]): _dec(s["value"]) for s in doc["statics"]
    }
    return CapturedState(
        frames=frames, statics=statics,
        class_names=list(doc["class_names"]),
        home_node=doc["home_node"], return_to=doc["return_to"],
        thread_name=doc.get("thread_name", "main"),
        namespace=doc.get("namespace"))


def save_checkpoint(state: CapturedState, path: str) -> None:
    """Write a checkpoint file."""
    with open(path, "w") as fh:
        fh.write(state_to_json(state, indent=2))


def load_checkpoint(path: str) -> CapturedState:
    """Read a checkpoint file."""
    with open(path) as fh:
        return state_from_json(fh.read())

"""Captured state and the value/object wire encoding.

Encoding rules (host-level tagged tuples; byte counts are modeled from
nominal sizes, see DESIGN.md):

* primitives travel by value;
* a heap object referenced from captured state travels as a *descriptor*
  ``("@ref", oid, home_node)`` — the defining property of SOD: the heap
  stays home and objects fault in on demand;
* object *payloads* (a fetched object, a write-back graph, an eager
  process copy) travel as shallow records ``("I", class, {field: enc})``
  / ``("A", kind, elem_bytes, [enc...])`` or as deep graphs with a
  side-table, cycle-safe.

A :class:`CapturedState` is what the migration manager sends: one
:class:`CapturedFrame` per stack frame (outermost of the segment first),
captured statics, the names of classes referenced, the home/return node,
and the modeled byte size.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import MigrationError
from repro.vm.frames import Frame, ThreadState
from repro.vm.heap import Heap
from repro.vm.objects import VMArray, VMInstance, OBJECT_HEADER_BYTES
from repro.vm.values import LOC_ELEM, LOC_FIELD, RemoteRef

REF_DESC_BYTES = 12
PRIM_BYTES = 8


def fingerprint(enc: Any) -> int:
    """Deterministic content hash of an *encoded* value or payload.

    Drives object revalidation: two encodings are "the same bytes on
    the wire" iff their fingerprints match.  CRC32 over the canonical
    repr is stable across processes (unlike ``hash()``, which salts
    strings), cheap, and adequate for a simulation — collisions would
    need adversarial guest programs.
    """
    return zlib.crc32(repr(enc).encode("utf-8", "backslashreplace"))


# -- value encoding ------------------------------------------------------------

def encode_value(v: Any, home_node: str,
                 identity: Optional[Dict[int, Tuple[int, str]]] = None
                 ) -> Tuple[Any, int]:
    """Encode one captured value (SOD-style: objects become descriptors).

    Returns (encoded, modeled_bytes).  A :class:`RemoteRef` captured at an
    intermediate hop is *forwarded* — it keeps pointing at the node that
    actually owns the object (this is what makes task roaming cheap: no
    proxy chains build up).  ``identity`` (``id(obj) -> (home_oid,
    home_node)``, a worker object manager's fetch map) extends the same
    forwarding to *fetched copies*: a multi-hop capture on a worker must
    re-encode a locally-materialized copy as a reference to the object's
    true home, not to the worker's private oid space.
    """
    if isinstance(v, (VMInstance, VMArray)):
        if identity is not None:
            ident = identity.get(id(v))
            if ident is not None:
                return ("@ref", ident[0], ident[1]), REF_DESC_BYTES
        return ("@ref", v.oid, home_node), REF_DESC_BYTES
    if isinstance(v, RemoteRef):
        return ("@ref", v.home_oid, v.home_node), REF_DESC_BYTES
    if isinstance(v, str):
        return v, 4 + len(v)
    return v, PRIM_BYTES


def decode_value(enc: Any, loc: Optional[Tuple] = None) -> Any:
    """Decode one captured value at the destination: descriptors become
    provenance-carrying :class:`RemoteRef` sentinels bound to ``loc``."""
    if isinstance(enc, tuple) and enc and enc[0] == "@ref":
        return RemoteRef(enc[1], enc[2], loc)
    return enc


@dataclass
class CapturedFrame:
    """One captured activation record.

    ``pc`` is the restoration pc (a migration-safe line start: the top
    frame's own MSP, or for suspended callers the start of the line
    containing the in-progress call, which the restored frame will
    re-execute to re-invoke its callee — paper Fig. 4b).  ``raw_pc``
    keeps the exact suspension point for residual-value delivery.
    """

    class_name: str
    method_name: str
    pc: int
    raw_pc: int
    locals: List[Any] = field(default_factory=list)  # encoded values

    def state_bytes(self) -> int:
        total = 40  # method ref + pcs + header
        for enc in self.locals:
            total += _enc_bytes(enc)
        return total


def _enc_bytes(enc: Any) -> int:
    if isinstance(enc, tuple) and enc and enc[0] == "@ref":
        return REF_DESC_BYTES
    if isinstance(enc, str):
        return 4 + len(enc)
    return PRIM_BYTES


@dataclass
class CapturedState:
    """The unit a SOD migration ships (stack segment + statics + class
    manifest).  ``return_to`` names the node holding the residual stack
    (where the segment's eventual return value must be delivered).

    ``namespace`` is the class-loader namespace tag the segment's
    thread executes in (``None`` = root): the destination links the
    segment's classes — and restores its statics — inside the matching
    namespace on the worker machine, so two segments of the same
    program never share static cells."""

    frames: List[CapturedFrame]
    statics: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    class_names: List[str] = field(default_factory=list)
    home_node: str = ""
    return_to: str = ""
    thread_name: str = "main"
    namespace: Optional[str] = None

    def state_bytes(self) -> int:
        """Modeled serialized size of the captured state."""
        total = 64
        if self.namespace:
            total += 4 + len(self.namespace)
        for f in self.frames:
            total += f.state_bytes()
        for _key, enc in self.statics.items():
            total += 16 + _enc_bytes(enc)
        total += sum(4 + len(n) for n in self.class_names)
        return total


# -- object payloads (fetch / write-back / eager copy) ---------------------------

def encode_object_shallow(obj: Any, owner_node: str,
                          identity: Optional[Dict[int, Tuple[int, str]]]
                          = None) -> Tuple[Any, int]:
    """Encode one heap object for an on-demand fetch: primitive fields by
    value, reference fields as descriptors (they will fault in turn).
    ``identity`` forwards fetched copies to their true home (see
    :func:`encode_value`) — a worker re-encoding its own copy of a home
    object uses it to reproduce the home's encoding bit-for-bit."""
    if isinstance(obj, VMInstance):
        fields: Dict[str, Any] = {}
        nbytes = OBJECT_HEADER_BYTES
        for name, v in obj.fields.items():
            enc, b = encode_value(v, owner_node, identity)
            fields[name] = enc
            nbytes += b
        return ("I", obj.class_name, fields), nbytes
    if isinstance(obj, VMArray):
        elems: List[Any] = []
        nbytes = OBJECT_HEADER_BYTES
        if obj.kind == "ref":
            for v in obj.data:
                enc, b = encode_value(v, owner_node, identity)
                elems.append(enc)
                nbytes += b
        else:
            elems = list(obj.data)
            nbytes += len(obj.data) * obj.nominal_elem_bytes
        return ("A", obj.kind, obj.nominal_elem_bytes, elems), nbytes
    raise MigrationError(f"cannot encode {type(obj).__name__}")


class GraphEncoder:
    """Deep, cycle-safe object-graph encoder.

    ``boundary`` decides per object whether it is *inlined* into the
    graph or referenced as ``("@ref", oid, node)``:

    * eager process migration (G-JavaMPI) inlines everything;
    * SOD write-back inlines only worker-created objects and references
      home-owned objects by their home oid.
    """

    def __init__(self, this_node: str,
                 home_identity: Optional[Dict[int, Tuple[int, str]]] = None,
                 eager: bool = False):
        self.this_node = this_node
        #: id(obj) -> (home_oid, home_node) for fetched copies
        self.home_identity = home_identity or {}
        self.eager = eager
        self.graph: Dict[int, Any] = {}
        self._memo: Dict[int, int] = {}
        self._next = 0
        self.nbytes = 0

    def encode(self, v: Any) -> Any:
        """Encode one value, growing the shared graph table."""
        if isinstance(v, RemoteRef):
            self.nbytes += REF_DESC_BYTES
            return ("@ref", v.home_oid, v.home_node)
        if isinstance(v, (VMInstance, VMArray)):
            if not self.eager:
                ident = self.home_identity.get(id(v))
                if ident is not None:
                    self.nbytes += REF_DESC_BYTES
                    return ("@ref", ident[0], ident[1])
            return self._encode_inline(v)
        if isinstance(v, str):
            self.nbytes += 4 + len(v)
            return v
        self.nbytes += PRIM_BYTES
        return v

    def _encode_inline(self, obj: Any) -> Any:
        key = id(obj)
        if key in self._memo:
            return ("@g", self._memo[key])
        gid = self._next
        self._next += 1
        self._memo[key] = gid
        self.graph[gid] = None  # reserve (cycles)
        self.nbytes += OBJECT_HEADER_BYTES
        if isinstance(obj, VMInstance):
            fields = {n: self.encode(fv) for n, fv in obj.fields.items()}
            self.graph[gid] = ("I", obj.class_name, fields, obj.oid)
        else:
            if obj.kind == "ref":
                elems = [self.encode(e) for e in obj.data]
            else:
                elems = list(obj.data)
                self.nbytes += len(obj.data) * obj.nominal_elem_bytes
            self.graph[gid] = ("A", obj.kind, obj.nominal_elem_bytes, elems,
                               obj.oid)
        return ("@g", gid)


class GraphDecoder:
    """Decode a graph produced by :class:`GraphEncoder` into a heap.

    ``("@ref", oid, node)`` entries pointing at *this* node resolve to
    live heap objects; entries pointing elsewhere become
    :class:`RemoteRef` sentinels (bound to field/element locations so
    they can fault in later).
    """

    def __init__(self, heap: Heap, loader: Any, this_node: str,
                 graph: Dict[int, Any]):
        self.heap = heap
        self.loader = loader
        self.this_node = this_node
        self.graph = graph
        self._made: Dict[int, Any] = {}
        #: (gid -> decoded object) for adoption bookkeeping by callers
        self.decoded: Dict[int, Any] = self._made

    def decode(self, enc: Any, loc: Optional[Tuple] = None) -> Any:
        if isinstance(enc, tuple) and enc:
            tag = enc[0]
            if tag == "@ref":
                _t, oid, node = enc
                if node == self.this_node:
                    return self.heap.get(oid)
                return RemoteRef(oid, node, loc)
            if tag == "@g":
                return self._materialize(enc[1])
        return enc

    def _materialize(self, gid: int) -> Any:
        if gid in self._made:
            return self._made[gid]
        rec = self.graph[gid]
        if rec[0] == "I":
            _t, class_name, fields, _oid = rec
            cls = self.loader.load(class_name)
            obj = self.heap.new_instance(cls)
            self._made[gid] = obj
            for name, fenc in fields.items():
                obj.fields[name] = self.decode(fenc, (LOC_FIELD, obj, name))
            return obj
        _t, kind, elem_bytes, elems, _oid = rec
        arr = self.heap.new_array(kind, len(elems), elem_bytes)
        self._made[gid] = arr
        if kind == "ref":
            for i, eenc in enumerate(elems):
                arr.data[i] = self.decode(eenc, (LOC_ELEM, arr, i))
        else:
            arr.data[:] = elems
        return arr


# -- eager whole-stack images (G-JavaMPI-style process copy) ---------------------

def encode_eager_image(thread: ThreadState, loader: Any) -> Dict[str, Any]:
    """Self-contained image of a whole thread: every frame (locals,
    operand stack, exact pc), the object graph reachable from them,
    and the statics of every class linked in ``loader`` (the thread's
    class-loader namespace) — everything inlined, nothing left behind
    to fault.  The inverse is :func:`decode_eager_image`."""
    enc = GraphEncoder(this_node="", eager=True)
    frames = [(f.code.class_name, f.code.name, f.pc,
               [enc.encode(v) for v in f.locals],
               [enc.encode(v) for v in f.stack])
              for f in thread.frames]
    statics = {(cls.name, fname): enc.encode(v)
               for cls in loader.loaded_classes().values()
               for fname, v in cls.statics.items()}
    return {"thread": thread.name, "frames": frames, "graph": enc.graph,
            "statics": statics}


def decode_eager_image(image: Dict[str, Any], heap: Heap, loader: Any,
                       namespace: Optional[str] = None) -> ThreadState:
    """Rebuild an :func:`encode_eager_image` image: decode the graph
    into ``heap``, apply the statics to ``loader``'s cells, then
    rebuild the frames with their locals, stacks and pcs.  The thread
    is tagged with ``namespace`` (the tag ``loader`` resolves)."""
    dec = GraphDecoder(heap, loader, this_node="", graph=image["graph"])
    for (cname, fname), e in image["statics"].items():
        home = loader.load(cname).find_static_home(fname)
        home.statics[fname] = dec.decode(e)
    thread = ThreadState(image["thread"], namespace=namespace)
    for cname, mname, pc, locs, stk in image["frames"]:
        code = loader.load(cname).find_method(mname)
        if code is None:
            raise MigrationError(f"no method {cname}.{mname}")
        frame = Frame(code)
        frame.locals = [dec.decode(e) for e in locs]
        frame.stack = [dec.decode(e) for e in stk]
        frame.pc = pc
        thread.frames.append(frame)
    return thread

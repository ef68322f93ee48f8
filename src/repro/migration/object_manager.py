"""Object managers: on-demand heap fetch and write-back (section III.C).

Two halves, as in the paper's architecture (Fig. 2):

* :class:`HomeObjectServer` — the home-side agent that "listens to object
  requests, retrieves object references needed via JVMTI and invokes
  Java serialization to send the object to the requester", and later
  applies write-back.
* :class:`WorkerObjectManager` — the destination-side half: binds the
  ``ObjMan.*`` natives (``resolve`` for the fault-handler path,
  ``check``/``checkStatic`` for the status-check baseline), maintains
  the cache of fetched objects (home-oid -> local copy, preserving
  identity), the dirty set for write-back, and charges
  serialize + network + deserialize costs per miss.

How dirtiness is detected: "which data was updated" (III.A) is a fact
about the *fetched copies*, so they carry it.  Every copy ``_decode``
adopts gets a :class:`_CopyFields` dict / :class:`_CopyData` list as
its ``fields`` / ``data``, whose item store records the copy in
``dirty``.  Every interpreter loop (and any native) stores through
``obj.fields[name] = v`` / ``arr.data[i] = v``, so none of them knows
a barrier exists, and worker-created objects pay nothing.  The only
bypasses are the manager's own installs, both in this module:
``_decode`` fills a plain container before wrapping it, ``_patch``
stores through ``dict.__setitem__`` / ``list.__setitem__``.  Statics
differ — host-side static installs are spread over restore, class-load
sync, resync, ``_patch`` and re-virginization, and a tracking dict
would need a bypass in each — so a guest ``PUTS`` calls
``Machine.on_static_write``, which records only for the segment
threads registered in ``thread_home``.

``fetch_service`` decouples the transport: the engine supplies a callable
``(requester_node, ref) -> (payload, nbytes, owner_node)``; the worker
manager charges the round-trip against its own clock (synchronous RPC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from collections import OrderedDict

from repro.errors import MigrationError
from repro.migration.state import (GraphDecoder, GraphEncoder,
                                   encode_object_shallow, fingerprint)
from repro.vm.machine import Machine
from repro.vm.objects import VMArray, VMClass, VMInstance
from repro.vm.values import (LOC_ELEM, LOC_FIELD, LOC_LOCAL, LOC_STATIC,
                             RemoteRef)


class HomeObjectServer:
    """Home-side object service for one machine."""

    def __init__(self, machine: Machine, node_name: str):
        self.machine = machine
        self.node_name = node_name
        #: objects served, for experiment reporting
        self.requests = 0
        #: when this node is also a worker (multi-hop chains), the
        #: worker object manager's ``home_identity`` — served payloads
        #: then forward nested *fetched copies* to their true home
        #: instead of mislabeling them with this node's oid space
        self.identity: Optional[Dict[int, Tuple[int, str]]] = None

    def fetch(self, oid: int) -> Tuple[Any, int]:
        """Serialize one home object (shallow).  Returns (payload, bytes).
        Serving a dangling oid is a host bug; serving an oid whose value
        is itself remote forwards the descriptor."""
        self.requests += 1
        obj = self.machine.heap.get(oid)
        payload, nbytes = encode_object_shallow(obj, self.node_name,
                                                self.identity)
        # Home-side serialization cost happens while the requester waits;
        # charge it on the home machine's clock as well (it burns CPU).
        self.machine.charge(self.machine.cost.serialize_cost(nbytes))
        return payload, nbytes

    def fetch_if_changed(self, oid: int,
                         fp: int) -> Tuple[Optional[Any], int]:
        """Conditional fetch: serialize one home object and compare its
        content fingerprint against ``fp`` (the digest of the payload
        the requester already holds from an earlier fetch).  Returns
        ``(None, nbytes)`` on a match — the requester's retained copy is
        still current, so only a tiny validation reply crosses the wire
        — or ``(payload, nbytes)`` when the object changed.

        The home still pays the serialization CPU either way (it had to
        encode the object to hash it); what a match saves is the wire
        time and the requester-side deserialization — the dominant cost
        for large objects on GigE/WAN links."""
        self.requests += 1
        obj = self.machine.heap.get(oid)
        payload, nbytes = encode_object_shallow(obj, self.node_name,
                                                self.identity)
        self.machine.charge(self.machine.cost.serialize_cost(nbytes))
        if fingerprint(payload) == fp:
            return None, nbytes
        return payload, nbytes

    def apply_writeback(self, updates: Dict[int, Dict[str, Any]],
                        elem_updates: Dict[int, List[Any]],
                        static_updates: Dict[Tuple[Optional[str], str, str],
                                             Any],
                        graph: Dict[int, Any],
                        return_enc: Any) -> Any:
        """Apply a completed segment's effects: dirty object fields, dirty
        array contents, dirty statics (keyed (namespace, class, field) —
        each lands in the matching class-loader namespace), plus the
        (possibly object-valued) return value.  Returns the decoded
        return value."""
        decoder = GraphDecoder(self.machine.heap, self.machine.loader,
                               self.node_name, graph)
        for oid, fields in updates.items():
            obj = self.machine.heap.get(oid)
            if not isinstance(obj, VMInstance):
                raise MigrationError(f"write-back of fields to non-instance #{oid}")
            for name, enc in fields.items():
                obj.fields[name] = decoder.decode(enc, (LOC_FIELD, obj, name))
        for oid, elems in elem_updates.items():
            arr = self.machine.heap.get(oid)
            if not isinstance(arr, VMArray):
                raise MigrationError(f"write-back of elements to non-array #{oid}")
            for i, enc in enumerate(elems):
                arr.data[i] = decoder.decode(enc, (LOC_ELEM, arr, i))
        for (ns, cname, fname), enc in static_updates.items():
            cls = self.machine.namespace(ns).load(cname) \
                .find_static_home(fname)
            cls.statics[fname] = decoder.decode(enc, (LOC_STATIC, cname, fname))
        return decoder.decode(return_enc)


FetchService = Callable[[str, RemoteRef], Tuple[Any, int, str]]


class _CopyFields(dict):
    """``fields`` of a fetched instance copy: an item store tells the
    manager the copy was written."""

    __slots__ = ("_man", "_copy")

    def __setitem__(self, name: str, value: Any) -> None:
        dict.__setitem__(self, name, value)
        self._man._wrote(self._copy)


class _CopyData(list):
    """``data`` of a fetched array copy (see :class:`_CopyFields`)."""

    __slots__ = ("_man", "_copy")

    def __setitem__(self, index: Any, value: Any) -> None:
        list.__setitem__(self, index, value)
        self._man._wrote(self._copy)


@dataclass
class FaultStats:
    """Counters for the object-faulting path (Table III analysis)."""

    faults: int = 0
    fetched_bytes: int = 0
    fetch_seconds: float = 0.0
    #: conditional re-fetches of retained copies, and how many came
    #: back "still current" (only a validation reply crossed the wire)
    revalidations: int = 0
    reval_hits: int = 0


class WorkerObjectManager:
    """Destination-side object manager for one worker machine."""

    def __init__(self, machine: Machine, node_name: str,
                 fetch_service: FetchService,
                 rtt_service: Callable[[str, str, int, int], float]):
        self.machine = machine
        self.node_name = node_name
        self.fetch_service = fetch_service
        self.rtt_service = rtt_service
        #: home-oid@node -> local fetched copy (identity-preserving)
        self.cache: Dict[Tuple[int, str], Any] = {}
        #: id(local obj) -> (home_oid, home_node)
        self.home_identity: Dict[int, Tuple[int, str]] = {}
        #: fetched copies written since their last write-back, by id, in
        #: first-write order (the message's encode order); worker-created
        #: objects are never here — they travel inline if reachable
        self.dirty: Dict[int, Any] = {}
        #: (namespace, class, field) -> (worker-side class, home node
        #: of the segment thread that wrote it).  The namespace tag
        #: comes from the written VMClass itself (cells live per
        #: namespace, so one class name can be dirty in several
        #: namespaces at once); the home attribution lets a
        #: multi-tenant write-back ship each home its own static
        #: updates.
        self.dirty_statics: Dict[Tuple[Optional[str], str, str],
                                 Tuple[VMClass, str]] = {}
        #: cache keys fetched on behalf of each running segment thread
        #: (a dict used as an ordered set: first-fetch order, one entry
        #: per distinct object however often the cache is hit), so its
        #: consistency epoch can be released at completion (the serve
        #: scheduler re-offloads threads whose home state has moved on;
        #: serving them stale cached copies would fork state)
        self.fetched_by: Dict[Any, Dict[Tuple[int, str], None]] = {}
        #: clean copies demoted (not evicted) when their segment epoch
        #: ended (their payload fingerprint stays in ``_payload_fp``).
        #: A later segment's fault on the same key revalidates the copy
        #: with a tiny conditional round trip instead of re-shipping the
        #: payload.  LRU-bounded; unused unless the engine installs
        #: ``reval_service``.
        self.retained: "OrderedDict[Tuple[int, str], Any]" = OrderedDict()
        self.retain_limit = 512
        #: conditional-fetch transport installed by the engine:
        #: (requester, ref, fp) -> (payload | None, nbytes, owner)
        self.reval_service: Optional[
            Callable[[str, RemoteRef, int],
                     Tuple[Optional[Any], int, str]]] = None
        #: home-key -> fingerprint of the payload as last received
        self._payload_fp: Dict[Tuple[int, str], int] = {}
        #: keys whose copies were written back since their fetch: their
        #: stored fingerprint is stale and needs a re-encode at release
        #: (clean copies keep the fetch-time digest — no re-encode)
        self._flushed_keys: set = set()
        #: restored segment thread -> the home node its state came from
        self.thread_home: Dict[Any, str] = {}
        #: static-bearing classes each segment thread's state touches
        self.thread_statics: Dict[Any, frozenset] = {}
        self.stats = FaultStats()
        #: fixed home-agent service cost per request (JVMTI object lookup
        #: + serializer setup); charged once per demand fetch and once
        #: per revalidation round trip.
        self.service_fixed = 0.0
        machine.on_static_write = self._on_static_write

    # -- dirty tracking ----------------------------------------------------

    def _wrote(self, copy: Any) -> None:
        """An item store hit fetched ``copy``'s tracking container.  A
        copy whose epoch ended (evicted, or demoted to ``retained``)
        has no identity and rides no write-back: a late store to it
        records nothing."""
        if id(copy) in self.home_identity:
            self.dirty[id(copy)] = copy

    def _on_static_write(self, home_class: VMClass) -> None:
        """A guest ``PUTS`` landed in ``home_class``'s cells.  Only a
        registered segment thread's statics ever ride a write-back; a
        local request's are nobody's business."""
        home = self.thread_home.get(self.machine.current_thread)
        if home is None:
            return
        ns = home_class.namespace
        for fname in home_class.statics:
            self.dirty_statics[(ns, home_class.name, fname)] = (
                home_class, home)

    def register_thread_home(self, thread: Any, home_node: str,
                             static_classes: frozenset = frozenset()
                             ) -> None:
        """Record which home a restored segment thread came from (so
        its static writes are attributed and written back to *that*
        home) and which static-bearing classes its state carries (so
        a later cross-home segment sharing them is refused)."""
        self.thread_home[thread] = home_node
        if static_classes:
            self.thread_statics[thread] = static_classes

    # -- fetching ---------------------------------------------------------------

    def fetch(self, ref: RemoteRef) -> Any:
        """Bring a remote object into the local heap (cached)."""
        key = (ref.home_oid, ref.home_node)
        hit = self.cache.get(key)
        if hit is not None:
            # A cache hit still joins the faulting thread's epoch:
            # releasing another thread must not evict (and de-identify)
            # a copy this thread is actively using.
            self._track_fetch(key)
            return hit
        if self.reval_service is not None and key in self.retained:
            return self._revalidate(ref, key)
        t0 = self.machine.clock
        payload, nbytes, owner = self.fetch_service(self.node_name, ref)
        self.machine.charge_raw(self.service_fixed)
        wire = self.machine.cost.wire_bytes(nbytes)
        self.machine.charge_raw(self.rtt_service(self.node_name, owner, 64, wire))
        self.machine.charge(self.machine.cost.deserialize_cost(nbytes))
        obj = self._decode(payload)
        self.cache[key] = obj
        self.home_identity[id(obj)] = (ref.home_oid, ref.home_node)
        if self.reval_service is not None:
            self._payload_fp[key] = fingerprint(payload)
        self._track_fetch(key)
        self.stats.faults += 1
        self.stats.fetched_bytes += nbytes
        self.stats.fetch_seconds += self.machine.clock - t0
        return obj

    def _revalidate(self, ref: RemoteRef, key: Tuple[int, str]) -> Any:
        """Fault on an object whose clean copy survives from an ended
        segment epoch: ask the home whether the copy is still current
        (one small conditional round trip).  A hit re-adopts the
        retained copy — the payload never re-rides the wire; a miss
        receives the fresh payload in the validation reply."""
        obj = self.retained.pop(key)
        fp = self._payload_fp.get(key, -1)
        t0 = self.machine.clock
        payload, nbytes, owner = self.reval_service(self.node_name, ref, fp)
        self.machine.charge_raw(self.service_fixed)
        self.stats.revalidations += 1
        fresh = payload is not None
        if not fresh:
            # Still current: request + tiny validation reply only.
            self.machine.charge_raw(
                self.rtt_service(self.node_name, owner, 72, 16))
            self.stats.reval_hits += 1
        else:
            wire = self.machine.cost.wire_bytes(nbytes)
            self.machine.charge_raw(
                self.rtt_service(self.node_name, owner, 72, wire))
            self.machine.charge(self.machine.cost.deserialize_cost(nbytes))
            obj = self._decode(payload)
            self._payload_fp[key] = fingerprint(payload)
            self.stats.faults += 1
            self.stats.fetched_bytes += nbytes
        self.cache[key] = obj
        self.home_identity[id(obj)] = key
        self._track_fetch(key)
        self.stats.fetch_seconds += self.machine.clock - t0
        return obj

    def _track_fetch(self, key: Tuple[int, str]) -> None:
        """Attribute a fetched cache entry to the thread that faulted."""
        thread = self.machine.current_thread
        if thread is not None:
            self.fetched_by.setdefault(thread, {})[key] = None

    def release_thread(self, thread: Any) -> None:
        """End one segment thread's consistency epoch: forget the home
        copies fetched on its behalf.  The home resumes (and mutates)
        those objects the moment the segment completes, so a later
        segment of the same program must re-fetch rather than reuse the
        now-stale cache.  Copies shared with a still-running segment
        (it hit the cache on the same key) stay — evicting them would
        also drop the identity its write-back needs.

        With ``reval_service`` installed, *clean* copies are demoted to
        the retained cache instead of dropped: a later fault on the
        same key revalidates them against the home (content-addressed)
        rather than re-shipping the payload.  Dirty copies — writes the
        worker never shipped home (an abandoned segment) — are always
        dropped: their content has forked from the fingerprint."""
        keys = self.fetched_by.pop(thread, ())
        self.thread_home.pop(thread, None)
        self.thread_statics.pop(thread, None)
        if not keys:
            return
        still_used = set()
        for other in self.fetched_by.values():
            still_used.update(other)
        evict = [k for k in keys if k not in still_used]
        if self.reval_service is not None:
            # Refresh *stale* fingerprints before identities are
            # dropped: a written-back copy's content now matches the
            # home, and the identity-aware re-encoding reproduces the
            # home's payload (nested fetched copies forward to their
            # home oids).  Copies never written back keep their
            # fetch-time digest — no re-encode on the completion path.
            for key in evict:
                if key not in self._flushed_keys:
                    continue
                self._flushed_keys.discard(key)
                obj = self.cache.get(key)
                if obj is None or id(obj) in self.dirty:
                    continue
                payload, _n = encode_object_shallow(obj, key[1],
                                                    self.home_identity)
                self._payload_fp[key] = fingerprint(payload)
        for key in evict:
            obj = self.cache.pop(key, None)
            if obj is None:
                continue
            self.home_identity.pop(id(obj), None)
            was_dirty = self.dirty.pop(id(obj), None) is not None
            if (self.reval_service is not None and not was_dirty
                    and key in self._payload_fp):
                self.retained[key] = obj
                self.retained.move_to_end(key)
                while len(self.retained) > self.retain_limit:
                    old, _o = self.retained.popitem(last=False)
                    self._payload_fp.pop(old, None)
            else:
                self.retained.pop(key, None)
                self._payload_fp.pop(key, None)

    def _decode(self, payload: Any) -> Any:
        from repro.migration.state import decode_value
        if payload[0] == "I":
            _t, class_name, fields = payload
            cls = self.machine.loader.load(class_name)
            obj = self.machine.heap.new_instance(cls)
            for name, enc in fields.items():
                obj.fields[name] = decode_value(enc, (LOC_FIELD, obj, name))
            box = obj.fields = _CopyFields(obj.fields)
        else:
            _t, kind, elem_bytes, elems = payload
            obj = self.machine.heap.new_array(kind, len(elems), elem_bytes)
            if kind == "ref":
                for i, enc in enumerate(elems):
                    obj.data[i] = decode_value(enc, (LOC_ELEM, obj, i))
            else:
                obj.data[:] = elems
            box = obj.data = _CopyData(obj.data)
        # tracked only from here on: the fill above recorded nothing
        box._man = self
        box._copy = obj
        return obj

    def _patch(self, ref: RemoteRef, obj: Any) -> None:
        """Write the fetched object into the faulting location (an
        install, not a guest store: it goes around the owner's tracking
        container, if it has one)."""
        loc = ref.loc
        if loc is None:
            return
        kind = loc[0]
        if kind == LOC_LOCAL:
            _k, frame, slot = loc
            frame.locals[slot] = obj
        elif kind == LOC_FIELD:
            _k, owner, name = loc
            dict.__setitem__(owner.fields, name, obj)
        elif kind == LOC_STATIC:
            # Faults happen mid-run, when machine.loader IS the
            # faulting thread's namespace: the patch lands in the
            # cells the thread is actually reading.
            _k, cname, fname = loc
            cls = self.machine.loader.load(cname).find_static_home(fname)
            cls.statics[fname] = obj
        elif kind == LOC_ELEM:
            _k, arr, idx = loc
            list.__setitem__(arr.data, idx, obj)
        else:  # pragma: no cover
            raise MigrationError(f"bad location {loc!r}")

    # -- natives -------------------------------------------------------------------

    def install_natives(self) -> None:
        """Bind ``ObjMan.*``: the fault-handler path and the status-check
        baseline path."""

        def resolve(machine: Machine, args: List[Any]) -> Any:
            ref = args[0].host_payload
            if not isinstance(ref, RemoteRef):  # pragma: no cover
                raise MigrationError("ObjMan.resolve on a non-fault NPE")
            obj = self.fetch(ref)
            # Patch every slot of the faulting frame that holds this
            # object's sentinel: the hardcoded receiver temp the
            # re-executed group reads (forward progress, paper III.C; at
            # a native site the faulting value may be a later argument's
            # temp) and the parameter or local it was copied from — a
            # sentinel passed by value has its origin in the caller.
            # (Empty operand stack at every faultable op: the locals are
            # the whole frame, so the handler's slot argument goes unread.)
            locs = machine.current_thread.frames[-1].locals
            for slot, cur in enumerate(locs):
                if (isinstance(cur, RemoteRef)
                        and cur.home_oid == ref.home_oid
                        and cur.home_node == ref.home_node):
                    locs[slot] = obj
            # ...and the sentinel's origin, so the local heap converges.
            self._patch(ref, obj)
            return None

        def check(machine: Machine, args: List[Any]) -> Any:
            v = args[0]
            if isinstance(v, RemoteRef):
                obj = self.fetch(v)
                self._patch(v, obj)
                return obj
            return v

        def check_static(machine: Machine, args: List[Any]) -> Any:
            cname, fname = args[0], args[1]
            cls = self.machine.loader.load(cname).find_static_home(fname)
            v = cls.statics[fname]
            if isinstance(v, RemoteRef):
                obj = self.fetch(v)
                cls.statics[fname] = obj
                return obj
            return v

        self.machine.natives.register("ObjMan.resolve", resolve)
        self.machine.natives.register("ObjMan.check", check)
        self.machine.natives.register("ObjMan.checkStatic", check_static)

    # -- write-back ----------------------------------------------------------------

    def dirty_in(self, home_node: Optional[str], only_keys: Optional[set]
                 ) -> List[Tuple[Any, Tuple[int, str]]]:
        """The dirty copies a write-back scoped to ``home_node`` /
        ``only_keys`` carries, as ``(copy, identity)`` in first-write
        order (see :meth:`build_writeback` for the scopes)."""
        out = []
        for obj in self.dirty.values():
            ident = self.home_identity[id(obj)]
            if home_node is not None and ident[1] != home_node:
                continue  # another segment's working set
            if only_keys is not None and ident not in only_keys:
                continue  # another thread's working set
            out.append((obj, ident))
        return out

    def dirty_statics_in(self, home_node: Optional[str]
                         ) -> Dict[Tuple[Optional[str], str, str], VMClass]:
        """The dirty statics a write-back scoped to ``home_node`` carries:
        the writes of that home's segment threads (``None``: all)."""
        return {key: cls for key, (cls, home) in self.dirty_statics.items()
                if home_node is None or home == home_node}

    def build_writeback(self, return_value: Any,
                        home_node: Optional[str] = None,
                        only_keys: Optional[set] = None
                        ) -> Tuple[Dict[str, Any], int]:
        """Assemble the completion message: return value + dirty objects
        + dirty statics.  Returns (message, modeled_bytes).

        ``home_node`` scopes the message to objects fetched *from that
        home*: a worker machine serving several concurrent segments
        (the elastic scheduler) must not ship another home's dirty
        objects — their oids mean nothing to this home's server and
        would be applied to unrelated objects.  ``None`` keeps the
        single-tenant behavior (ship everything).

        ``only_keys`` (a set of ``(oid, node)`` identities) narrows the
        object updates further — to one *thread's* working set.  A
        multi-hop completion flushes the chain segment's own
        intermediate-hop objects without sweeping up another running
        segment's in-flight writes."""
        enc = GraphEncoder(self.node_name, self.home_identity, eager=False)
        updates: Dict[int, Dict[str, Any]] = {}
        elem_updates: Dict[int, List[Any]] = {}
        for obj, (oid, _node) in self.dirty_in(home_node, only_keys):
            if isinstance(obj, VMInstance):
                updates[oid] = {n: enc.encode(v) for n, v in obj.fields.items()}
            else:
                if obj.kind == "ref":
                    elem_updates[oid] = [enc.encode(v) for v in obj.data]
                else:
                    elem_updates[oid] = list(obj.data)
                    enc.nbytes += len(obj.data) * obj.nominal_elem_bytes
        # Statics: a scoped write-back ships only the writes of that
        # home's segment threads; an unscoped one (single-tenant
        # flushes) ships everything.  Keys are (namespace, class,
        # field): the home applies each update inside the namespace
        # whose cells were written.
        static_updates = {
            key: enc.encode(cls.statics[key[2]])
            for key, cls in self.dirty_statics_in(home_node).items()}
        return_enc = enc.encode(return_value)
        message = {
            "updates": updates,
            "elem_updates": elem_updates,
            "static_updates": static_updates,
            "graph": enc.graph,
            "return": return_enc,
        }
        return message, enc.nbytes + 64

    def clear_dirty(self, home_node: Optional[str] = None,
                    only_keys: Optional[set] = None) -> None:
        """Forget what a successful write-back with the same scope
        shipped, so later flushes (multi-hop roaming) only ship fresh
        changes; another segment's dirty copies and statics stay
        tracked for its own completion."""
        for obj, ident in self.dirty_in(home_node, only_keys):
            self._flushed_keys.add(ident)
            del self.dirty[id(obj)]
        self.dirty_statics = {
            key: (cls, home)
            for key, (cls, home) in self.dirty_statics.items()
            if home_node is not None and home != home_node
        }

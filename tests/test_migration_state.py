"""State encoding / object graph wire-format tests."""

import pytest

from repro.lang import compile_source
from repro.migration import (CapturedFrame, CapturedState, GraphDecoder,
                             GraphEncoder, decode_value,
                             encode_object_shallow, encode_value)
from repro.vm import Machine, RemoteRef
from repro.vm.values import LOC_FIELD, LOC_LOCAL

SRC = """
class Node2 { int v; Node2 next; }
class T { static int f() { return 0; } }
"""


@pytest.fixture()
def machine():
    return Machine(compile_source(SRC))


def _node(machine, v):
    obj = machine.heap.new_instance(machine.loader.load("Node2"))
    obj.fields["v"] = v
    return obj


# -- scalar encoding ----------------------------------------------------------

def test_encode_primitives_by_value():
    for v in (5, 2.5, True, None, "hi"):
        enc, nbytes = encode_value(v, "home")
        assert enc == v
        assert nbytes > 0
        assert decode_value(enc) == v


def test_encode_object_becomes_descriptor(machine):
    obj = _node(machine, 1)
    enc, _ = encode_value(obj, "home")
    assert enc == ("@ref", obj.oid, "home")
    ref = decode_value(enc, ("local", None, 3))
    assert isinstance(ref, RemoteRef)
    assert ref.home_oid == obj.oid and ref.loc == ("local", None, 3)


def test_encode_forwards_existing_remote_ref():
    ref = RemoteRef(9, "origin")
    enc, _ = encode_value(ref, "hop2")
    assert enc == ("@ref", 9, "origin")  # still points at the true owner


def test_state_bytes_accumulates(machine):
    frame = CapturedFrame("T", "f", 0, 0, locals=[1, "abcd", ("@ref", 2, "h")])
    state = CapturedState(frames=[frame], statics={("T", "x"): 5},
                          class_names=["T"], home_node="h")
    assert state.state_bytes() > frame.state_bytes() > 0
    assert len(state.frames) == 1


# -- shallow object payloads ------------------------------------------------------

def test_shallow_instance_payload(machine):
    a = _node(machine, 1)
    b = _node(machine, 2)
    a.fields["next"] = b
    payload, nbytes = encode_object_shallow(a, "home")
    kind, cname, fields = payload
    assert kind == "I" and cname == "Node2"
    assert fields["v"] == 1
    assert fields["next"] == ("@ref", b.oid, "home")
    assert nbytes >= 16


def test_shallow_primitive_array(machine):
    arr = machine.heap.new_array("int", 4, 8)
    arr.data[:] = [1, 2, 3, 4]
    payload, nbytes = encode_object_shallow(arr, "home")
    assert payload == ("A", "int", 8, [1, 2, 3, 4])
    assert nbytes == 16 + 32


def test_shallow_ref_array_elements_are_descriptors(machine):
    a = _node(machine, 1)
    arr = machine.heap.new_array("ref", 2, 8)
    arr.data[0] = a
    payload, _ = encode_object_shallow(arr, "home")
    assert payload[3][0] == ("@ref", a.oid, "home")
    assert payload[3][1] is None


# -- deep graphs -------------------------------------------------------------------

def test_graph_roundtrip_with_cycle(machine):
    a = _node(machine, 1)
    b = _node(machine, 2)
    a.fields["next"] = b
    b.fields["next"] = a  # cycle
    enc = GraphEncoder(this_node="w", eager=True)
    root = enc.encode(a)
    dec = GraphDecoder(machine.heap, machine.loader, "w", enc.graph)
    a2 = dec.decode(root)
    assert a2.fields["v"] == 1
    assert a2.fields["next"].fields["v"] == 2
    assert a2.fields["next"].fields["next"] is a2  # cycle preserved
    assert a2 is not a  # a copy


def test_graph_respects_home_identity_boundary(machine):
    fetched = _node(machine, 5)
    fresh = _node(machine, 6)
    fetched.fields["next"] = fresh
    enc = GraphEncoder(this_node="worker",
                       home_identity={id(fetched): (77, "home")})
    root = enc.encode(fetched)
    assert root == ("@ref", 77, "home")  # not inlined
    root2 = enc.encode(fresh)
    assert root2[0] == "@g"  # fresh object inlined


def test_graph_decoder_resolves_local_refs(machine):
    target = _node(machine, 9)
    enc_ref = ("@ref", target.oid, "home")
    dec = GraphDecoder(machine.heap, machine.loader, "home", {})
    assert dec.decode(enc_ref) is target


def test_graph_decoder_makes_remote_refs_elsewhere(machine):
    dec = GraphDecoder(machine.heap, machine.loader, "worker", {})
    got = dec.decode(("@ref", 5, "home"), (LOC_FIELD, None, "next"))
    assert isinstance(got, RemoteRef)
    assert got.home_node == "home" and got.loc[0] == LOC_FIELD


def test_graph_arrays_roundtrip(machine):
    arr = machine.heap.new_array("ref", 2, 8)
    arr.data[0] = _node(machine, 3)
    enc = GraphEncoder(this_node="w", eager=True)
    root = enc.encode(arr)
    dec = GraphDecoder(machine.heap, machine.loader, "w", enc.graph)
    arr2 = dec.decode(root)
    assert arr2.data[0].fields["v"] == 3
    assert arr2.data[1] is None


def test_graph_encoder_counts_bytes(machine):
    big = machine.heap.new_array("int", 1000, 8)
    enc = GraphEncoder(this_node="w", eager=True)
    enc.encode(big)
    assert enc.nbytes >= 8000

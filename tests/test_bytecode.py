"""Bytecode layer tests: code objects, assembler, verifier."""

import pytest

from repro.bytecode import (ClassFile, CodeObject, ExcEntry, Instr,
                            disassemble, stack_depths, verify, verify_class)
from repro.bytecode import opcodes as op
from repro.errors import VerifyError

from tests.helpers import assemble


# -- Instr / CodeObject -------------------------------------------------------

def test_instr_equality_and_repr():
    """Instructions compare by identity: passes build new lists and
    nothing looks an instruction up by value."""
    a = Instr(op.CONST, 1)
    assert a == a and a != Instr(op.CONST, 1)
    assert repr(a) == "CONST 1"


def test_stack_effect_static_and_calls():
    assert op.stack_effect(op.ADD) == (2, 1)
    assert op.stack_effect(op.INVOKESTATIC, ("C", "m"), 3) == (3, 1)
    assert op.stack_effect(op.INVOKEVIRT, "m", 2) == (3, 1)
    assert op.stack_effect(op.NATIVE, "Sys.print", 1) == (1, 1)
    with pytest.raises(KeyError):
        op.stack_effect("BOGUS")


def test_line_table_lookup():
    code = CodeObject("C", "m", 0, 1,
                      [Instr(op.CONST, 0)] * 10,
                      line_table=[(0, 1), (4, 2), (7, 3)])
    assert code.line_of(0) == 1
    assert code.line_of(5) == 2
    assert code.line_of(9) == 3
    assert code.line_start(5) == 4
    assert code.line_start(9) == 7


def test_code_copy_is_independent():
    code = CodeObject("C", "m", 0, 1, [Instr(op.CONST, 0), Instr(op.RET)])
    code.msps = {0}
    cp = code.copy()
    cp.instrs.append(Instr(op.NOP))
    cp.msps.add(1)
    assert len(code.instrs) == 2
    assert code.msps == {0}


def test_classfile_field_lookup():
    from repro.bytecode import FieldDecl
    cf2 = ClassFile("D", fields=[FieldDecl("x", False, "int", 8),
                                 FieldDecl("s", True, "int", 8)])
    assert [f.name for f in cf2.instance_fields()] == ["x"]
    assert [f.name for f in cf2.static_fields()] == ["s"]


# -- assembler -------------------------------------------------------------------

def test_assemble_simple_method():
    code = assemble("""
    method Math.add static params=2 locals=2
      line 1
      LOAD 0
      LOAD 1
      ADD
      RETV
    """)
    verify(code)
    assert code.qualname == "Math.add"
    assert code.instrs[2].op == op.ADD


def test_assemble_labels_and_catch():
    code = assemble("""
    method C.m static params=1 locals=1
      line 1
      LOAD 0
      JZ Lzero
      CONST 1
      RETV
    Lzero:
      CONST 0
      RETV
    Lhandler:
      POP
      CONST -1
      RETV
      catch 0 4 -> Lhandler NullPointerException
    """)
    verify(code)
    assert code.instrs[1].a == 4
    assert code.exc_table[0].handler == 6


def test_assemble_two_arg_opcodes():
    code = assemble("""
    method C.m static params=0 locals=1
      line 1
      GETS ('C', 'x')
      POP
      NATIVE 'Sys.print' 0
      POP
      RET
    """)
    assert code.instrs[0].a == ("C", "x")
    assert code.instrs[2].a == "Sys.print"
    assert code.instrs[2].b == 0


def test_assemble_rejects_unknown_opcode():
    with pytest.raises(VerifyError):
        assemble("method C.m static params=0 locals=0\n  FROB 1")


def test_assemble_rejects_bad_header():
    with pytest.raises(VerifyError):
        assemble("methodd C.m params=0 locals=0\n  RET")


def test_disassemble_roundtrip_content():
    code = assemble("""
    method C.m static params=1 locals=2
      line 3
      LOAD 0
      STORE 1
      LOAD 1
      RETV
    """)
    text = disassemble(code)
    assert "C.m" in text and "LOAD 0" in text and "line 3" in text


# -- verifier ------------------------------------------------------------------------

def _code(instrs, nlocals=2, exc=None):
    return CodeObject("T", "m", 0, nlocals, instrs, exc_table=exc or [])


def test_verify_rejects_empty():
    with pytest.raises(VerifyError):
        verify(_code([]))


def test_verify_rejects_bad_slot():
    with pytest.raises(VerifyError):
        verify(_code([Instr(op.LOAD, 5), Instr(op.RETV)]))


def test_verify_rejects_bad_jump_target():
    with pytest.raises(VerifyError):
        verify(_code([Instr(op.JMP, 99)]))


def test_verify_rejects_stack_underflow():
    with pytest.raises(VerifyError):
        verify(_code([Instr(op.ADD), Instr(op.RET)]))


def test_verify_rejects_falling_off_end():
    with pytest.raises(VerifyError):
        verify(_code([Instr(op.CONST, 1), Instr(op.POP)]))


def test_verify_rejects_inconsistent_depths():
    # Two paths reach bci 3 with different stack depths.
    instrs = [
        Instr(op.CONST, True),   # 0
        Instr(op.JZ, 3),         # 1 -> 3 with depth 0
        Instr(op.CONST, 7),      # 2 (fallthrough pushes)
        Instr(op.RET),           # 3 reached with depth 0 or 1
    ]
    with pytest.raises(VerifyError):
        verify(_code(instrs))


def test_verify_rejects_bad_exc_range():
    with pytest.raises(VerifyError):
        verify(_code([Instr(op.RET)], exc=[ExcEntry(0, 5, 0, "Throwable")]))


def test_verify_rejects_const_of_weird_type():
    with pytest.raises(VerifyError):
        verify(_code([Instr(op.CONST, object()), Instr(op.RET)]))


def test_verify_accepts_handler_depth_one():
    instrs = [
        Instr(op.CONST, 1),   # 0
        Instr(op.POP),        # 1
        Instr(op.RET),        # 2
        Instr(op.POP),        # 3 handler: exception on stack
        Instr(op.RET),        # 4
    ]
    verify(_code(instrs, exc=[ExcEntry(0, 2, 3, "Throwable")]))


def test_stack_depths_reports_reachable_only():
    instrs = [
        Instr(op.CONST, 1),  # 0
        Instr(op.RETV),      # 1
        Instr(op.NOP),       # 2 unreachable
    ]
    d = stack_depths(_code(instrs))
    assert d[0] == 0 and d[1] == 1
    assert 2 not in d


def test_verify_class_walks_methods(app_classes_original):
    for cf in app_classes_original.values():
        verify_class(cf)


def test_lswitch_targets_checked():
    with pytest.raises(VerifyError):
        verify(_code([Instr(op.CONST, 1), Instr(op.LSWITCH, {0: 99}, 0)]))

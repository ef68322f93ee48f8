"""Bytecode layer: ISA, code objects, disassembler, verifier."""

from repro.bytecode.assembler import disassemble
from repro.bytecode.code import ClassFile, CodeObject, ExcEntry, FieldDecl, Instr
from repro.bytecode.verifier import stack_depths, verify, verify_class

__all__ = [
    "disassemble",
    "ClassFile", "CodeObject", "ExcEntry", "FieldDecl", "Instr",
    "stack_depths", "verify", "verify_class",
]

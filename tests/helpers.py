"""Test helpers shared across modules (importable, unlike conftest)."""

from __future__ import annotations

import ast
import os
import re
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.bytecode import opcodes as op
from repro.bytecode.code import CodeObject, ExcEntry, Instr
from repro.errors import VerifyError
from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.preprocess.fuse import FUSED_NAMES
from repro.vm import Machine
from repro.vm.objects import VMInstance


def compile_and_run(source: str, cls: str, method: str, args=None,
                    build: str = "original"):
    """Compile, preprocess, run; returns (result, machine)."""
    classes = preprocess_program(compile_source(source), build)
    machine = Machine(classes)
    result = machine.call(cls, method, list(args or []))
    return result, machine


def serve_mix(*args, **kw):
    """Serve the run ``build_serving`` builds from the same arguments
    and return the report."""
    from repro.serve import build_serving

    sched, load = build_serving(*args, **kw)
    return sched.serve(load)


def any_of(*triggers):
    """A stop trigger that fires when any part fires; declared (an
    ``at`` set of trap points, the union of the parts') when every
    part is."""
    def trig(t) -> bool:
        return any(part(t) for part in triggers)
    if all(hasattr(part, "at") for part in triggers):
        trig.at = frozenset().union(*(p.at for p in triggers))
    return trig


def tier1_dispatches(classes, main, args) -> Counter:
    """Dispatches per tier-1 arm (superinstruction or opcode name) of
    one run, with no counter in ``src/``: the hooked loop reports every
    ``(code, pc)`` it is about to execute through ``stop``, and the
    trace is replayed against the fused stream — the slot at a group
    start is one dispatch and swallows the next ``count - 1`` entries,
    as ``_run_fast`` (``jit=False``) would.  ``sum(values())`` is the
    dispatch count; the instruction count is ``machine.instr_count``.
    A component that throws into a guest handler ends its group: the
    handler's entry is then the next dispatch, and any other departure
    from the group is an error."""
    m = Machine(classes, dispatch="legacy")
    hist: Counter = Counter()
    pending = []  # the (code, pc) the open group still has to see

    def replay(thread):
        frame = thread.frames[-1]
        at = (frame.code, frame.pc)
        if pending and pending[-1] != at and _caught_at(frame):
            pending.clear()
        if pending:
            assert pending.pop() == at, f"group left at {at}"
            return False
        slot = m.decoded(frame.code)[frame.pc]
        hist[FUSED_NAMES.get(slot[0])
             or frame.code.instrs[frame.pc].op] += 1
        pending.extend((frame.code, frame.pc + k)
                       for k in range(slot[3] - 1, 0, -1))
        return False

    m.run(m.spawn(main[0], main[1], list(args)), stop=replay)
    return hist


def _caught_at(frame) -> bool:
    """Is ``frame`` at the entry of a handler that just took an
    exception: a handler pc of its method, the exception alone on the
    operand stack?"""
    return any(e.handler == frame.pc for e in frame.code.exc_table) \
        and len(frame.stack) == 1 and isinstance(frame.stack[0], VMInstance)


#: The fuzzers' two environment names.  ``REPRO_FUZZ_SEED`` pins every
#: seeded stream; ``REPRO_FUZZ_COUNT`` is the one size knob — the
#: dispatch differential runs that many generated programs and every
#: other campaign keeps its stock size as a share of it.
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260726"))
FUZZ_COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "200"))


def fuzz_budget(stock: int) -> int:
    """Size of a campaign that runs ``stock`` cases at the default
    ``REPRO_FUZZ_COUNT`` of 200, scaled to the current one."""
    return max(1, stock * FUZZ_COUNT // 200)


# -- a line-oriented assembler ---------------------------------------------------
#
# Expresses methods without the compiler, in the text the disassembler
# prints (``repro.bytecode.disassemble``)::
#
#     method Geometry.displaceX static params=0 locals=3
#       line 1
#         CONST 2
#         STORE 1
#       line 2
#         LOAD 1
#         RETV
#       catch 0 4 -> 5 NullPointerException
#       L1:
#         ...
#
# ``Lname:`` defines a label at the next instruction; branch targets may
# be labels or literal integers; ``line N`` opens a new source line at
# the next instruction; ``catch a b -> h Exc`` appends an
# exception-table row (labels allowed).

_HEADER = re.compile(
    r"method\s+(\w+)\.(\w+)(\s+static)?\s+params=(\d+)\s+locals=(\d+)"
)
_LABEL = re.compile(r"^(\w+):$")
_CATCH = re.compile(r"catch\s+(\S+)\s+(\S+)\s*->\s*(\S+)\s+(\w+)")


def _parse_arg(tok: str, labels: Dict[str, int]):
    """Parse one instruction argument: label, literal, or python literal."""
    if tok in labels:
        return labels[tok]
    try:
        return ast.literal_eval(tok)
    except (ValueError, SyntaxError):
        return tok  # bare identifier -> string (field/class names)


def assemble(text: str) -> CodeObject:
    """Assemble one method from its textual form."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()
             and not ln.strip().startswith("#")]
    if not lines:
        raise VerifyError("empty assembly")
    m = _HEADER.match(lines[0])
    if not m:
        raise VerifyError(f"bad method header: {lines[0]!r}")
    cls, name, static, nparams, nlocals = (
        m.group(1), m.group(2), bool(m.group(3)), int(m.group(4)), int(m.group(5))
    )

    # First pass: resolve labels to bcis.
    labels: Dict[str, int] = {}
    bci = 0
    body: List[Tuple[str, str]] = []  # (kind, text)
    for ln in lines[1:]:
        lab = _LABEL.match(ln)
        if lab:
            labels[lab.group(1)] = bci
            continue
        if ln.startswith("line ") or _CATCH.match(ln):
            body.append(("meta", ln))
            continue
        body.append(("instr", ln))
        bci += 1

    instrs: List[Instr] = []
    line_table: List[Tuple[int, int]] = []
    exc_table: List[ExcEntry] = []
    for kind, ln in body:
        if kind == "meta":
            if ln.startswith("line "):
                line_table.append((len(instrs), int(ln.split()[1])))
            else:
                c = _CATCH.match(ln)
                assert c is not None
                start = _parse_arg(c.group(1), labels)
                end = _parse_arg(c.group(2), labels)
                handler = _parse_arg(c.group(3), labels)
                exc_table.append(ExcEntry(start, end, handler, c.group(4)))
            continue
        toks = ln.split(None, 1)
        opcode = toks[0]
        if opcode not in op.ALL_OPS:
            raise VerifyError(f"unknown opcode {opcode!r}")
        a = b = None
        if len(toks) > 1:
            rest = toks[1]
            if opcode in (op.INVOKESTATIC, op.INVOKEVIRT, op.NATIVE,
                          op.GETS, op.PUTS, op.NEWARR, op.LSWITCH):
                # Either one composite literal (tuple/dict) or two args
                # separated by whitespace at the top level.
                try:
                    a = ast.literal_eval(rest)
                except (ValueError, SyntaxError):
                    parts = rest.rsplit(None, 1)
                    if len(parts) == 2:
                        a = _parse_arg(parts[0], labels)
                        b = _parse_arg(parts[1], labels)
                    else:
                        a = _parse_arg(rest, labels)
            else:
                a = _parse_arg(rest, labels)
        instrs.append(Instr(opcode, a, b))

    if not line_table:
        line_table = [(0, 1)]
    return CodeObject(cls, name, nparams, nlocals, instrs, line_table,
                      exc_table, is_static=static)


@pytest.fixture()
def loop_meter(monkeypatch):
    """Instructions executed inside ``_run_loop`` and trap hits (tier 1
    returns ``"trap"`` once per hit)."""
    meter = {"hooked_instrs": 0, "trap_hits": 0}
    real_loop, real_fast = Machine._run_loop, Machine._run_fast

    def run_loop(self, *a, **k):
        i0 = self.instr_count
        try:
            return real_loop(self, *a, **k)
        finally:
            meter["hooked_instrs"] += self.instr_count - i0

    def run_fast(self, *a, **k):
        status = real_fast(self, *a, **k)
        meter["trap_hits"] += status == "trap"
        return status

    monkeypatch.setattr(Machine, "_run_loop", run_loop)
    monkeypatch.setattr(Machine, "_run_fast", run_fast)
    return meter

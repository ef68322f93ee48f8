"""Code objects: instructions, exception tables, methods and classes.

A :class:`ClassFile` is the unit the class preprocessor transforms and
the unit shipped over the network on demand during migration (the paper's
"code migration").  It holds field declarations and
:class:`CodeObject` methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bytecode import opcodes as op
from repro.errors import VMError

#: Instructions are charged in whole ticks, this many to a cost weight
#: of 1.0, held as integer-valued floats: sums of those (below 2**53)
#: are exact in any order, so every dispatch loop counts the same bits.
TICKS_PER_WEIGHT = 100


def weight_ticks(weights: Dict[str, float]) -> Dict[str, float]:
    """Every opcode's cost in ticks under ``weights`` (1.0 unless named
    there); refuses, by name, a weight that is not whole ticks."""
    ticks = dict.fromkeys(op.OP_IDS, float(TICKS_PER_WEIGHT))
    for name, w in weights.items():
        ticks[name] = t = float(round(w * TICKS_PER_WEIGHT))
        if t / TICKS_PER_WEIGHT != w:
            raise VMError(f"cost weight {name}={w!r} is not a whole "
                          f"number of ticks (1/{TICKS_PER_WEIGHT})")
    return ticks


class Instr:
    """One bytecode instruction: an opcode plus up to two arguments.

    Instances are treated as immutable by convention; transformation
    passes build new lists.
    """

    __slots__ = ("op", "a", "b")

    def __init__(self, opcode: str, a: Any = None, b: Any = None):
        self.op = opcode
        self.a = a
        self.b = b

    def replace(self, a: Any = None, b: Any = None) -> "Instr":
        """A copy with ``a``/``b`` overridden (pass ``None`` to keep)."""
        return Instr(self.op, self.a if a is None else a, self.b if b is None else b)

    def __repr__(self) -> str:
        parts = [self.op]
        if self.a is not None:
            parts.append(repr(self.a))
        if self.b is not None:
            parts.append(repr(self.b))
        return " ".join(parts)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Instr) and self.op == other.op
                and self.a == other.a and self.b == other.b)

    def __hash__(self) -> int:
        # Cheap structural hash; LSWITCH carries a dict argument, so fall
        # back to repr() only when an argument is unhashable.
        try:
            return hash((self.op, self.a, self.b))
        except TypeError:
            return hash((self.op, repr(self.a), repr(self.b)))


@dataclass(frozen=True)
class ExcEntry:
    """One exception-table row: if a guest exception whose class matches
    ``exc_class`` (or any, for ``"Throwable"``) unwinds out of bci range
    ``[start, end)``, control transfers to ``handler`` with the exception
    object pushed on the (cleared) operand stack."""

    start: int
    end: int
    handler: int
    exc_class: str


@dataclass(frozen=True)
class FieldDecl:
    """A field declaration: name, static flag, declared type name, and
    nominal per-element byte width (drives serialization cost)."""

    name: str
    is_static: bool = False
    type_name: str = "int"
    nominal_bytes: int = 8


class CodeObject:
    """A compiled method body.

    Attributes:
        class_name / name: owning class and method name (identity).
        nparams: number of parameters (slot 0..nparams-1; instance
            methods receive ``this`` in slot 0).
        max_locals: total local slots (params + declared + temps).
        is_static: static methods have no ``this``.
        instrs: the instruction list; bci == list index.
        line_table: sorted ``(bci, source_line)`` pairs; a line's region
            extends to the next entry.
        exc_table: exception-table rows (searched in order).
        local_names: debug names per slot (VMTI LocalVariableTable).
        msps: migration-safe bcis (filled by the preprocessor; empty
            operand stack guaranteed at these points).
        version: which preprocessing build produced this code:
            ``original`` / ``faulting`` / ``checking``.
    """

    def __init__(self, class_name: str, name: str, nparams: int,
                 max_locals: int, instrs: Sequence[Instr],
                 line_table: Optional[Sequence[Tuple[int, int]]] = None,
                 exc_table: Optional[Sequence[ExcEntry]] = None,
                 local_names: Optional[Sequence[str]] = None,
                 is_static: bool = True,
                 version: str = "original"):
        self.class_name = class_name
        self.name = name
        self.nparams = nparams
        self.max_locals = max_locals
        self.is_static = is_static
        self.instrs: List[Instr] = list(instrs)
        self.line_table: List[Tuple[int, int]] = sorted(line_table or [(0, 1)])
        self.exc_table: List[ExcEntry] = list(exc_table or [])
        self.local_names: List[str] = list(
            local_names or [f"v{i}" for i in range(max_locals)]
        )
        self.msps: set[int] = set()
        self.version = version
        #: tier-up profile: frame entries + loop back-edges observed by
        #: the fast loop.  Shared across machines on purpose — hotness
        #: is a property of the program, not of one VM — so machines
        #: compare against the threshold with ``>=``, never ``==``.
        self.hotness = 0
        #: cache for :meth:`predecoded`: id(weights) -> (weights, the
        #: copy of it a hit is verified against, stream).  The table is
        #: kept so its id cannot be recycled while the cache is alive.
        self._predecoded: Dict[
            int, Tuple[Dict[str, float], Dict[str, float],
                       List[Tuple[int, Any, Any, float]]]] = {}
        #: tier-2 memo, owned by :func:`repro.vm.jit.compile_code`:
        #: (len(instrs), link sites, {link shape: template}).  Same
        #: lifetime and invalidation as ``_predecoded``.
        self._tier2: Optional[Tuple[int, tuple, Dict[frozenset, Any]]] = None
        #: cell-less tier-1 streams by id(weights); owned by fuse.py
        self._fused: Dict[int, tuple] = {}

    # -- identity / display ------------------------------------------------

    @property
    def qualname(self) -> str:
        """``Class.method`` display name."""
        return f"{self.class_name}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CodeObject {self.qualname} [{len(self.instrs)} instrs]>"

    # -- line table --------------------------------------------------------

    def line_of(self, bci: int) -> int:
        """Source line containing ``bci``."""
        line = self.line_table[0][1]
        for start, ln in self.line_table:
            if start > bci:
                break
            line = ln
        return line

    def line_start(self, bci: int) -> int:
        """The bci at which the source line containing ``bci`` starts."""
        start_bci = self.line_table[0][0]
        for start, _ln in self.line_table:
            if start > bci:
                break
            start_bci = start
        return start_bci

    def line_starts(self) -> List[int]:
        """All line-start bcis in order."""
        return [bci for bci, _ in self.line_table]

    # -- pre-decoding ------------------------------------------------------

    def predecoded(self, weights: Dict[str, float]
                   ) -> List[Tuple[int, Any, Any, float]]:
        """The cached tuple-form instruction stream.

        Slot ``i`` holds ``(opid, a, b, ticks)`` for ``instrs[i]``:
        the dense integer opcode (:data:`repro.bytecode.opcodes.OP_IDS`),
        the two raw arguments, and the cost weight from ``weights``
        converted to ticks (:func:`weight_ticks`) — so the interpreter's
        hot loop never touches opcode strings or the weight table.

        The stream is cached per weight table, verified against a
        snapshot so an in-place edit rebuilds it; callers that mutate
        ``instrs`` after execution started (no in-tree pass does) must
        call :meth:`invalidate_decoded`.
        """
        entry = self._predecoded.get(id(weights))
        if (entry is not None and entry[0] is weights
                and entry[1] == weights
                and len(entry[2]) == len(self.instrs)):
            return entry[2]
        ticks = weight_ticks(weights)
        ids = op.OP_IDS
        stream = [(ids[i.op], i.a, i.b, ticks[i.op]) for i in self.instrs]
        self._predecoded[id(weights)] = (weights, dict(weights), stream)
        return stream

    def invalidate_decoded(self) -> None:
        """Drop cached decoded and fused streams and tier-2 templates
        (after in-place instr or weight-table mutation)."""
        self._predecoded.clear()
        self._fused.clear()
        self._tier2 = None

    # -- transformation support ---------------------------------------------

    def copy(self) -> "CodeObject":
        """A deep-enough copy for transformation passes."""
        c = CodeObject(
            self.class_name, self.name, self.nparams, self.max_locals,
            [Instr(i.op, i.a, i.b) for i in self.instrs],
            list(self.line_table), list(self.exc_table),
            list(self.local_names), self.is_static, self.version,
        )
        c.msps = set(self.msps)
        return c


class ClassFile:
    """A compiled class: fields, methods, optional superclass.

    ``statics_nominal_bytes`` is used by migration cost accounting for
    "accumulated size of static fields" (Table I's F column includes a
    64 MB static FFT array).
    """

    def __init__(self, name: str, superclass: Optional[str] = None,
                 fields: Optional[Sequence[FieldDecl]] = None,
                 methods: Optional[Dict[str, CodeObject]] = None,
                 version: str = "original"):
        self.name = name
        self.superclass = superclass
        self.fields: List[FieldDecl] = list(fields or [])
        self.methods: Dict[str, CodeObject] = dict(methods or {})
        self.version = version
        #: memo of :func:`repro.preprocess.sizes.class_size`
        self._size: Optional[int] = None

    def field(self, name: str) -> Optional[FieldDecl]:
        """Find a field declared directly on this class."""
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def instance_fields(self) -> List[FieldDecl]:
        """Non-static fields declared directly on this class."""
        return [f for f in self.fields if not f.is_static]

    def static_fields(self) -> List[FieldDecl]:
        """Static fields declared directly on this class."""
        return [f for f in self.fields if f.is_static]

    def copy(self) -> "ClassFile":
        """Deep-enough copy for the preprocessor."""
        return ClassFile(
            self.name, self.superclass, list(self.fields),
            {n: m.copy() for n, m in self.methods.items()}, self.version,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ClassFile {self.name} ({self.version})>"


def remap_targets(instrs: Sequence[Instr], mapping: Dict[int, int]) -> List[Instr]:
    """Rewrite all jump targets through ``mapping`` (old bci -> new bci).

    Used by transformation passes after instruction insertion.
    """
    out: List[Instr] = []
    for ins in instrs:
        if ins.op in op.BRANCHES:
            out.append(Instr(ins.op, mapping[ins.a], ins.b))
        elif ins.op == op.LSWITCH:
            table = {k: mapping[v] for k, v in ins.a.items()}
            out.append(Instr(ins.op, table, mapping[ins.b]))
        else:
            out.append(Instr(ins.op, ins.a, ins.b))
    return out

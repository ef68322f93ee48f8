"""Grammar-based MiniLang program fuzzer.

Generates random-but-valid MiniLang programs (bounded loops, DAG calls,
bounded recursion, arrays, objects, virtual-dispatch hierarchies,
switch/LSWITCH, statics, string bands — concat / compare / length /
substring over locals and a static string cell, substr-clamped so
loop-carried folds stay bounded — the pure ``Sys`` math natives in the
int and float bands, try/catch, guest-exception sites) and
differentially checks the fast tiers — the pre-decoded/fused/
inline-cached interpreter and the tier-2 JIT — against the legacy
loop (one handler per opcode) on stdout / result / uncaught-exception /
instr_count / clock (:func:`run_fuzz`; campaigns over the same seeds
can share each program's legacy run).

Beyond dispatch, :func:`run_migration_fuzz` drives the *migration*
path: each program is re-run on the faulting build, frozen at a
seeded-random instruction count (any capture point the VM can reach,
not just a handpicked trigger method), its top frames SOD-migrated to
a second node, executed remotely, completed home, and the final
result / uncaught class / interleaved stdout compared against the
straight-line oracle.

Seeding: every stream derives from ``random.Random(f"...:{seed}")``
(string seeds hash with SHA-512), so runs are reproducible across
processes and immune to pytest-randomly's global-state shuffling.

On divergence the failing program is *shrunk*: removable statements are
deleted one at a time while the divergence persists, and the minimized
source + seed are reported.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CompileError, MigrationError
from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.vm import Machine
from repro.vm.objects import VMArray, VMInstance

#: value clamp applied to loop-carried assignments so generated loops
#: cannot grow bigints without bound (repeated squaring would otherwise
#: produce numbers with 2**iterations digits)
CLAMP = 100003

EXC_TYPES = ("ArithmeticException", "IndexOutOfBoundsException",
             "NullPointerException", "Throwable")

BINOPS = ("+", "-", "*", "/", "%")


# -- program representation (shrinkable) ---------------------------------------


@dataclass
class Slot:
    """One statement slot in a method body; ``removable`` slots are
    candidates for deletion during shrinking."""

    text: str
    removable: bool = True


@dataclass
class FuzzProgram:
    """A generated program: fixed prelude classes + method bodies."""

    seed: int
    main_args: Tuple[int, int]
    methods: List[Tuple[str, str, List[Slot]]] = field(default_factory=list)

    def render(self) -> str:
        parts = ["class Box { int v; Box next; }",
                 "class S { static int acc; static str tag; }",
                 # a three-deep virtual-dispatch hierarchy: V/VA/VB all
                 # override f, VB also overrides g (which calls f
                 # virtually through this), so receiver-class inline
                 # caches see monomorphic, bimorphic, and megamorphic
                 # sites depending on what the program news up
                 f"class V {{ int tag; "
                 f"int f(int a, int b) {{ return (a + b + tag) % {CLAMP}; }} "
                 f"int g(int a) {{ return this.f(a, tag) + 1; }} }}",
                 f"class VA extends V {{ "
                 f"int f(int a, int b) {{ return (a * 2 - b + tag) % {CLAMP}; }} }}",
                 f"class VB extends VA {{ "
                 f"int f(int a, int b) {{ return (b - a + 7 * tag) % {CLAMP}; }} "
                 f"int g(int a) {{ return this.f(a, a) - tag; }} }}",
                 "class G {"]
        for _name, header, slots in self.methods:
            parts.append(f"  {header} {{")
            for slot in slots:
                for line in slot.text.splitlines():
                    parts.append(f"    {line}")
            parts.append("  }")
        parts.append("}")
        return "\n".join(parts)

    def removable_sites(self) -> List[Tuple[int, int]]:
        sites = []
        for mi, (_n, _h, slots) in enumerate(self.methods):
            for si, slot in enumerate(slots):
                if slot.removable:
                    sites.append((mi, si))
        return sites

    def without(self, site: Tuple[int, int]) -> "FuzzProgram":
        mi, si = site
        methods = [(n, h, list(slots)) for n, h, slots in self.methods]
        del methods[mi][2][si]
        return FuzzProgram(self.seed, self.main_args, methods)


# -- generation ----------------------------------------------------------------


#: float clamp modulus: a non-integral constant so float identity is
#: exercised (fmod keeps loop-carried floats bounded, away from inf/nan)
FCLAMP = "829.25"

class _Ctx:
    """Per-method scope tracking: what names an expression may use."""

    def __init__(self, rng: random.Random, callable_methods: List[str]):
        self.rng = rng
        self.ints: List[str] = ["a", "b"]
        self.floats: List[str] = []       # declared float vars
        self.strs: List[str] = []         # declared str vars
        self.arrays: List[Tuple[str, int]] = []  # (name, length)
        self.boxes: List[str] = []        # initialized Box vars
        self.null_boxes: List[str] = []   # vars that may hold null
        self.vobjs: List[str] = []        # initialized V-typed vars
        #: names that may be read but never assigned (live loop
        #: variables: writing one could make its loop non-terminating)
        self.no_write: set = set()
        self.callable = callable_methods
        self.counter = 0

    def writable_ints(self) -> List[str]:
        return [v for v in self.ints if v not in self.no_write]

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"


def _expr(ctx: _Ctx, depth: int) -> str:
    rng = ctx.rng
    roll = rng.random()
    if depth <= 0 or roll < 0.28:
        return str(rng.randint(-20, 99))
    if roll < 0.50:
        return rng.choice(ctx.ints)
    if roll < 0.56:
        return "S.acc"
    if roll < 0.59 and ctx.strs:
        return f"Sys.len({_sexpr(ctx, 1)})"  # length band
    if roll < 0.63 and ctx.arrays:
        name, length = rng.choice(ctx.arrays)
        # mostly in bounds, sometimes out (guest IndexOutOfBounds site)
        if rng.random() < 0.85:
            idx = str(rng.randint(0, max(0, length - 1)))
        else:
            idx = _expr(ctx, 0)
        return f"{name}[{idx}]"
    if roll < 0.68 and ctx.boxes:
        return f"{rng.choice(ctx.boxes)}.v"
    if roll < 0.71 and ctx.null_boxes:
        return f"{rng.choice(ctx.null_boxes)}.v"  # NPE site
    if roll < 0.77 and ctx.vobjs:
        # virtual dispatch through the V hierarchy (receiver class is
        # whatever the variable was last assigned)
        recv = rng.choice(ctx.vobjs)
        if rng.random() < 0.7:
            return (f"{recv}.f({_expr(ctx, depth - 1)}, "
                    f"{_expr(ctx, depth - 1)})")
        return f"{recv}.g({_expr(ctx, depth - 1)})"
    if roll < 0.80 and ctx.vobjs:
        return f"{rng.choice(ctx.vobjs)}.tag"
    if roll < 0.86 and ctx.callable:
        callee = rng.choice(ctx.callable)
        return (f"G.{callee}({_expr(ctx, depth - 1)}, "
                f"{_expr(ctx, depth - 1)})")
    if roll < 0.89:
        return f"(-{_expr(ctx, depth - 1)})"
    if roll < 0.93:
        return _int_math(ctx, depth)
    op = rng.choice(BINOPS)
    return f"({_expr(ctx, depth - 1)} {op} {_expr(ctx, depth - 1)})"


def _int_math(ctx: _Ctx, depth: int) -> str:
    """An int-valued pure math native (tier 2 runs these in line): of a
    clamped float, so ``intOf`` / ``floor`` / ``ceil`` stay finite, or
    of int expressions."""
    rng = ctx.rng
    roll = rng.random()
    if roll < 0.4:
        fn = rng.choice(("intOf", "floor", "ceil"))
        return f"Sys.{fn}(({_fexpr(ctx, depth - 1)}) % {FCLAMP})"
    if roll < 0.8:
        return (f"Sys.{rng.choice(('min', 'max'))}({_expr(ctx, depth - 1)}, "
                f"{_expr(ctx, depth - 1)})")
    return f"Sys.abs({_expr(ctx, depth - 1)})"


def _fexpr(ctx: _Ctx, depth: int) -> str:
    """A float-valued expression.  Division and modulo only ever see
    non-zero *constant* right-hand sides (a float zero-divide is a host
    error, not a guest exception), and every loop-carried assignment is
    fmod-clamped, so values stay finite and the differential compares
    exact float results across interpreters."""
    rng = ctx.rng
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        return f"{rng.randint(-12, 40)}.{rng.choice(('0', '25', '5', '75'))}"
    if roll < 0.55 and ctx.floats:
        return rng.choice(ctx.floats)
    if roll < 0.65:
        return rng.choice(ctx.ints)  # int operands promote in mixed ops
    if roll < 0.75:
        denom = f"{rng.randint(1, 9)}.{rng.choice(('5', '25'))}"
        return f"({_fexpr(ctx, depth - 1)} / {denom})"
    if roll < 0.85:
        return _float_math(ctx, depth)
    op = rng.choice(("+", "-", "*"))
    return f"({_fexpr(ctx, depth - 1)} {op} {_fexpr(ctx, depth - 1)})"


def _float_math(ctx: _Ctx, depth: int) -> str:
    """A float-valued pure math native (tier 2 runs these in line),
    each argument in its domain: ``sqrt`` of an ``abs``, ``floatOf`` of
    a clamped int, ``min`` / ``max`` mixing int and float operands."""
    rng = ctx.rng
    roll = rng.random()
    if roll < 0.3:
        return f"Sys.sqrt(Sys.abs({_fexpr(ctx, depth - 1)}))"
    if roll < 0.5:
        return f"Sys.floatOf({rng.choice(ctx.ints)} % {CLAMP})"
    if roll < 0.75:
        return (f"Sys.{rng.choice(('sin', 'cos'))}"
                f"({_fexpr(ctx, depth - 1)})")
    return (f"Sys.{rng.choice(('min', 'max'))}({_fexpr(ctx, depth - 1)}, "
            f"{_fexpr(ctx, depth - 1)})")


def _float_stmt(ctx: _Ctx) -> str:
    """Declare a fresh float, or fold into an existing one (clamped)."""
    rng = ctx.rng
    if not ctx.floats or rng.random() < 0.5:
        var = ctx.fresh("f")
        text = f"float {var} = {_fexpr(ctx, 2)};"
        ctx.floats.append(var)
        return text
    var = rng.choice(ctx.floats)
    return f"{var} = ({_fexpr(ctx, 2)}) % {FCLAMP};"


#: substring clamp length: loop-carried string folds are cut to this
#: many chars, so concat inside a loop cannot grow without bound
SCLAMP = 8

_STR_LITS = ('""', '"a"', '"xy"', '"Q9"', '"_"')


def _sexpr(ctx: _Ctx, depth: int) -> str:
    """A string-valued expression: literals, declared str vars, the
    static string cell, concat (int operands coerce via ADD's string
    rule), and substring slices.  ``Sys.charAt`` is deliberately
    absent — an out-of-range index there is a *host* IndexError, not a
    guest exception, so it cannot be differentially compared."""
    rng = ctx.rng
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        return rng.choice(_STR_LITS)
    if roll < 0.50 and ctx.strs:
        return rng.choice(ctx.strs)
    if roll < 0.58:
        return "S.tag"
    if roll < 0.72:
        return f"({_sexpr(ctx, depth - 1)} + {_expr(ctx, 1)})"
    if roll < 0.86:
        return f"({_sexpr(ctx, depth - 1)} + {_sexpr(ctx, depth - 1)})"
    lo = rng.randint(0, 2)
    return (f"Sys.substr({_sexpr(ctx, depth - 1)}, {lo}, "
            f"{lo + rng.randint(0, SCLAMP)})")


def _str_fold(ctx: _Ctx) -> str:
    """Fold into an existing str var or the static string cell —
    always substr-clamped (legal inside loop bodies)."""
    rng = ctx.rng
    if not ctx.strs or rng.random() < 0.3:
        return (f"S.tag = Sys.substr(S.tag + {_sexpr(ctx, 1)}, 0, "
                f"{SCLAMP});")
    var = rng.choice(ctx.strs)
    return f"{var} = Sys.substr({var} + {_sexpr(ctx, 1)}, 0, {SCLAMP});"


def _string_stmt(ctx: _Ctx) -> str:
    """Declare a fresh str, or fold into an existing one."""
    rng = ctx.rng
    if not ctx.strs or rng.random() < 0.45:
        var = ctx.fresh("s")
        text = f"str {var} = {_sexpr(ctx, 2)};"
        ctx.strs.append(var)
        return text
    return _str_fold(ctx)


def _cond(ctx: _Ctx) -> str:
    rng = ctx.rng
    op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
    roll = rng.random()
    if ctx.floats and roll < 0.15:
        c = f"{rng.choice(ctx.floats)} {op} {_fexpr(ctx, 1)}"
    elif ctx.strs and roll < 0.30:
        # string bands: equality on contents, ordering/length via len
        if rng.random() < 0.5:
            c = (f"{rng.choice(ctx.strs)} {rng.choice(('==', '!='))} "
                 f"{_sexpr(ctx, 1)}")
        else:
            c = f"Sys.len({_sexpr(ctx, 1)}) {op} {_expr(ctx, 1)}"
    else:
        c = f"{_expr(ctx, 1)} {op} {_expr(ctx, 1)}"
    if rng.random() < 0.2:
        glue = rng.choice(("&&", "||"))
        c = f"{c} {glue} {_expr(ctx, 1)} {rng.choice(('<', '>'))} " \
            f"{_expr(ctx, 1)}"
    return c


def _simple_stmt(ctx: _Ctx, clamp: bool) -> str:
    """A statement legal inside a nested block: assignment to an
    existing name or a print — never a declaration (keeps inner blocks
    scope-safe under shrinking)."""
    rng = ctx.rng
    roll = rng.random()
    if roll < 0.12:
        return f'Sys.print("v=" + {_expr(ctx, 1)});'
    if roll < 0.24:
        return f"S.acc = (S.acc + {_expr(ctx, 1)}) % {CLAMP};"
    if roll < 0.30:
        return _str_fold(ctx)
    if roll < 0.45 and ctx.arrays:
        name, length = rng.choice(ctx.arrays)
        idx = rng.randint(0, max(0, length - 1))
        return f"{name}[{idx}] = {_expr(ctx, 1)};"
    if roll < 0.52 and ctx.boxes:
        return f"{rng.choice(ctx.boxes)}.v = {_expr(ctx, 1)};"
    if roll < 0.58 and ctx.vobjs:
        return f"{rng.choice(ctx.vobjs)}.tag = {_expr(ctx, 1)};"
    writable = ctx.writable_ints()
    if not writable:
        return f'Sys.print("w=" + {_expr(ctx, 1)});'
    var = rng.choice(writable)
    rhs = _expr(ctx, 2)
    if clamp:
        return f"{var} = ({rhs}) % {CLAMP};"
    return f"{var} = {rhs};"


def _switch_stmt(ctx: _Ctx) -> str:
    """A switch over a small expression: 1-3 integer case arms (possibly
    falling through — no break 40% of the time), usually a default."""
    rng = ctx.rng
    labels = rng.sample(range(-2, 8), rng.randint(1, 3))
    arms: List[str] = []
    for label in labels:
        body = [_simple_stmt(ctx, clamp=False)]
        if rng.random() < 0.6:
            body.append("break;")
        arms.append(f"case {label}:\n"
                    + "\n".join(f"  {line}" for line in body))
    if rng.random() < 0.7:
        arms.append(f"default:\n  {_simple_stmt(ctx, clamp=False)}")
    inner = "\n".join(arms)
    return f"switch ({_expr(ctx, 1)}) {{\n{inner}\n}}"


def _stmt(ctx: _Ctx) -> str:
    rng = ctx.rng
    roll = rng.random()
    if roll < 0.20:
        var = ctx.fresh("v")
        text = f"int {var} = {_expr(ctx, 2)};"
        ctx.ints.append(var)
        return text
    if roll < 0.31:
        return _simple_stmt(ctx, clamp=False)
    if roll < 0.38:
        var = ctx.fresh("xs")
        length = rng.randint(1, 6)
        ctx.arrays.append((var, length))
        return f"int[] {var} = new int[{length}];"
    if roll < 0.45:
        var = ctx.fresh("bx")
        if rng.random() < 0.8:
            ctx.boxes.append(var)
            return (f"Box {var} = new Box();\n"
                    f"{var}.v = {_expr(ctx, 1)};")
        ctx.null_boxes.append(var)
        return f"Box {var} = null;"
    if roll < 0.52:
        var = ctx.fresh("vo")
        cls = rng.choice(("V", "VA", "VB"))
        ctx.vobjs.append(var)
        return (f"V {var} = new {cls}();\n"
                f"{var}.tag = {_expr(ctx, 1)};")
    if roll < 0.57:
        text = _float_stmt(ctx)
        if rng.random() < 0.3 and ctx.floats:
            text += f'\nSys.print("fv=" + {rng.choice(ctx.floats)});'
        return text
    if roll < 0.63:
        text = _string_stmt(ctx)
        if rng.random() < 0.3 and ctx.strs:
            text += f'\nSys.print("sv=" + {rng.choice(ctx.strs)});'
        return text
    if roll < 0.68:
        return (f"if ({_cond(ctx)}) {{\n"
                f"  {_simple_stmt(ctx, clamp=False)}\n"
                f"}} else {{\n"
                f"  {_simple_stmt(ctx, clamp=False)}\n"
                f"}}")
    if roll < 0.73:
        return _switch_stmt(ctx)
    if roll < 0.82:
        i = ctx.fresh("i")
        bound = rng.randint(2, 8)
        ctx.ints.append(i)
        ctx.no_write.add(i)
        body = [_simple_stmt(ctx, clamp=True)
                for _ in range(rng.randint(1, 2))]
        ctx.ints.remove(i)
        ctx.no_write.discard(i)
        inner = "\n".join(f"  {line}" for line in body)
        return (f"for (int {i} = 0; {i} < {bound}; {i} = {i} + 1) {{\n"
                f"{inner}\n}}")
    if roll < 0.92:
        exc = rng.choice(EXC_TYPES)
        handler_var = ctx.fresh("e")
        risky = _simple_stmt(ctx, clamp=False)
        recover = _simple_stmt(ctx, clamp=False)
        return (f"try {{\n  {risky}\n}} catch ({exc} {handler_var}) {{\n"
                f"  {recover}\n}}")
    return f'Sys.print("t=" + {_expr(ctx, 2)});'


def generate(seed: int) -> FuzzProgram:
    """A random valid program, deterministically derived from ``seed``."""
    rng = random.Random(f"minilang-fuzz:{seed}")
    prog = FuzzProgram(seed=seed,
                       main_args=(rng.randint(-3, 9), rng.randint(-3, 9)))
    names: List[str] = []

    # Occasionally: a bounded-recursion helper (depth for migrations).
    if rng.random() < 0.4:
        name = "rec"
        prog.methods.append((name, f"static int {name}(int a, int b)", [
            Slot("if (a <= 0) { return b; }", removable=False),
            Slot(f"return G.{name}(a - 1, (b + a) % {CLAMP});",
                 removable=False),
        ]))
        names.append(name)

    # Helper methods forming a call DAG (m_i may call only m_j, j < i).
    for k in range(rng.randint(1, 3)):
        name = f"m{k}"
        ctx = _Ctx(rng, list(names))
        slots = [Slot(_stmt(ctx)) for _ in range(rng.randint(2, 6))]
        slots.append(Slot(f"return {_expr(ctx, 2)};", removable=False))
        prog.methods.append((name, f"static int {name}(int a, int b)",
                             slots))
        names.append(name)

    # main: some local work, then calls into the DAG.
    ctx = _Ctx(rng, list(names))
    slots = [Slot(_stmt(ctx)) for _ in range(rng.randint(1, 4))]
    ret_terms = [f"G.{n}({_expr(ctx, 1)}, {_expr(ctx, 1)})"
                 for n in rng.sample(names, rng.randint(1, len(names)))]
    if rng.random() < 0.5:
        slots.append(Slot(f'Sys.print("acc=" + S.acc);'))
    slots.append(Slot("return " + " + ".join(ret_terms) + ";",
                      removable=False))
    prog.methods.append(("main", "static int main(int a, int b)", slots))
    return prog


# -- differential checking -----------------------------------------------------

#: dispatch configurations checked against the legacy oracle.  The fast
#: modes pin ``jit=False`` so they stay a pure tier-1 differential no
#: matter what ``REPRO_JIT`` says; the tier-2 modes turn the
#: specializing JIT on explicitly.
MODES = [("fast", dict(dispatch="fast", jit=False))]

#: tier-2 configuration: the specializing JIT above the fast mode.
#: Fuzzed under a hotness threshold of 1 (:func:`_jit_threshold`) so
#: even one-shot generated programs compile and run the closures.
TIER2_MODES = [("tier2", dict(dispatch="fast", jit=True, threshold=1))]

#: the modes the cross-tier *schedule* property compares with the
#: legacy loop: tier 1, tier 2 compiling at once and at the shipped
#: threshold (so a run crosses tiers mid-way)
SCHEDULE_MODES = MODES + TIER2_MODES + [
    ("tier2-default", dict(dispatch="fast", jit=True))]

#: scheduler budgets the schedule property is checked under: every
#: safepoint, a prime that lands mid-block, and the two in use
#: (``REAL_QUANTUM``-ish 500 and the serving default 2500)
QUANTA = (1, 37, 500, 2500)


@contextmanager
def _jit_threshold(n: Optional[int]):
    """Temporarily lower the tier-up hotness threshold (the machine
    reads the module global at loop entry, so this takes effect for
    every run inside the block); ``None`` keeps the shipped one."""
    import repro.vm.jit as _jit
    old = _jit.JIT_THRESHOLD
    if n is not None:
        _jit.JIT_THRESHOLD = n
    try:
        yield
    finally:
        _jit.JIT_THRESHOLD = old


_PRIMITIVE = frozenset({int, float, str, bool, type(None)})


def _leaf(x):
    return x if type(x) in _PRIMITIVE else type(x).__name__


def _flat_ref(v):
    if isinstance(v, VMInstance):
        return (v.class_name, tuple(sorted((k, _leaf(x))
                                           for k, x in v.fields.items())))
    if isinstance(v, VMArray):
        return (v.kind, tuple(_leaf(x) for x in v.data))
    return v


def _flat(values):
    """Guest values as comparable plain data (one level deep)."""
    return tuple(v if type(v) in _PRIMITIVE else _flat_ref(v)
                 for v in values)


def flat_frames(thread, top: Optional[int] = None):
    """The frames of ``thread`` (all, or the ``top`` innermost) as
    plain data: method, pc, operand stack and locals — the
    preprocessor's temps included.  Tuples all the way down, so that
    kept oracle runs cost the garbage collector nothing."""
    return tuple((f.code.qualname, f.pc, _flat(f.stack), _flat(f.locals))
                 for f in (thread.frames if top is None
                           else thread.frames[-top:]))


#: frames per ``schedule`` row.  Not the whole stack: one generated
#: program of the stock campaign recurses 4199 deep across 28k
#: preemptions (57 M frames per run).  Compiled code writes only the
#: running frame's locals, and a caller's pre-call write-back is what
#: the rows inside its callee see, so every frame is compared while it
#: can change.
ROW_FRAMES = 3

#: what :func:`_observe` returns, in order
OBSERVED = ("result", "uncaught", "stdout", "instr_count", "clock",
            "jit_compile_errors", "schedule")


def _observe(classes, args, quantum: Optional[int] = None,
             main: Tuple[str, str] = ("G", "main"),
             threshold: Optional[int] = None,
             max_instrs: Optional[int] = None,
             stop: Any = None, **kw) -> Tuple[Any, ...]:
    """Run ``main(*args)`` on a fresh ``Machine(classes, **kw)`` to
    completion — sliced into ``quantum``-instruction runs when given —
    and return the :data:`OBSERVED` tuple.  ``schedule`` is where every
    slice ended and what a capture there would see: ``(stack depth,
    method, frame.pc, instr_count, the top ROW_FRAMES flat_frames)``
    per ``"preempted"`` (tier 2 defers its writes to ``frame.locals``;
    here every local is held to the oracle's).  With a ``stop`` predicate
    every run carries it and every ``"stopped"`` is one more slice end
    (``"stop"`` appended to its row), resumed the way ``workflow.roam``
    resumes: one instruction under ``max_instrs=1``, then ``stop``
    again.  None if the runs together hit ``max_instrs`` (which, like
    any run with it set, executes on the hooked loop)."""
    m = Machine(classes, **kw)
    t = m.spawn(main[0], main[1], list(args))
    schedule = []
    with _jit_threshold(threshold):
        while True:
            status = m.run(
                t, stop=stop, quantum=quantum,
                max_instrs=max_instrs and max_instrs - m.instr_count)
            if status not in ("preempted", "stopped"):
                break
            top = t.frames[-1]
            row = (len(t.frames), top.code.qualname, top.pc, m.instr_count,
                   flat_frames(t, ROW_FRAMES))
            if status == "stopped":
                row += ("stop",)
                m.run(t, max_instrs=1)
            schedule.append(row)
    if status == "limit":
        return None
    err = None
    if t.uncaught is not None:
        err = (t.uncaught.class_name, t.uncaught.fields.get("msg"))
    return (t.result, err, tuple(m.stdout), m.instr_count, m.clock,
            m.jit_compile_errors, tuple(schedule))


#: instruction budget per generated program (rare compositions — e.g. a
#: large-argument recursion inside a loop — can reach millions of
#: instructions; they are valid but too slow to differential-run)
MAX_INSTRS = 1_500_000

SKIPPED = "skipped"


def divergence(source: str, args: Tuple[int, ...],
               build: str = "original",
               modes: Optional[List[Tuple[str, Dict[str, Any]]]] = None,
               quanta: Tuple[int, ...] = (),
               main: Tuple[str, str] = ("G", "main"),
               stop: Any = None,
               oracle: Optional[Dict[Optional[int], Any]] = None
               ) -> Optional[str]:
    """None if every mode in ``modes`` (default: the tier-1 fast
    modes) matches the legacy oracle — run unsliced, then sliced by
    every scheduler budget in ``quanta`` — ``SKIPPED`` if the program
    exceeds the instruction budget, else a human-readable description
    of the first mismatch.  Everything but the clock must be *equal*,
    including the whole preemption ``schedule``: where a quantum
    expires may not depend on which loop executed the slice.

    ``stop`` is a *declared* predicate (``at``) every run of
    every mode carries — on the fast tiers, evaluated at its traps —
    while the oracle polls the same predicate *undeclared* before every
    instruction; the schedule then holds every stop as well.

    ``oracle``, a dict shared by calls on the same source, args, build
    and main, keeps each legacy run by quantum so that it runs once.
    A run it already holds is compared against as it is, whatever
    ``stop`` this call carries (``modes=[]`` only fills it)."""
    try:
        classes = preprocess_program(compile_source(source), build)
    except CompileError as exc:
        return f"generator produced invalid program: {exc}"
    polled = stop and (lambda thread: stop(thread))
    if oracle is None:
        oracle = {}
    for q in (None,) + tuple(quanta):
        if q not in oracle:
            # The unsliced legacy run doubles as the budget screen.
            oracle[q] = _observe(
                classes, args, q, main, dispatch="legacy",
                max_instrs=MAX_INSTRS if q is None else None, stop=polled)
        ref = oracle[q]
        if ref is None:
            return SKIPPED
        for label, kw in (MODES if modes is None else modes):
            got = _observe(classes, args, q, main, stop=stop, **kw)
            for what, a, b in zip(OBSERVED, ref, got):
                if what == "schedule" and a != b:
                    k = next((i for i, (x, y) in enumerate(zip(a, b))
                              if x != y), min(len(a), len(b)))
                    a, b = (len(a), a[k:k + 1]), (len(b), b[k:k + 1])
                    what, ok = f"schedule[{k}]", False
                else:
                    ok = a == b
                if not ok:
                    return (f"[{label}/{build}/quantum={q}] {what}: "
                            f"legacy={a!r} {label}={b!r}")
    return None


def _compiles(source: str) -> bool:
    try:
        compile_source(source)
        return True
    except CompileError:
        return False


def shrink(prog: FuzzProgram, check) -> FuzzProgram:
    """Greedy statement deletion while the divergence persists.

    ``check(source, args)`` is the failing campaign's own oracle, so a
    failure shrinks against the same build, budgets and capture
    schedule it was found under."""
    improved = True
    while improved:
        improved = False
        for site in prog.removable_sites():
            cand = prog.without(site)
            src = cand.render()
            if not _compiles(src):
                continue
            if check(src, prog.main_args) not in (None, SKIPPED):
                prog = cand
                improved = True
                break
    return prog


# -- migration-path fuzzing ----------------------------------------------------

#: instruction budget for the migration oracle run (the migrated replay
#: roughly doubles the work, so the screen is tighter than dispatch's)
MIG_MAX_INSTRS = 400_000


def migration_divergence(source: str, args: Tuple[int, int],
                         seed: int) -> Optional[str]:
    """Differentially check the SOD migration path at a seeded-random
    capture point.

    The program runs once straight-line (legacy dispatch) as the
    oracle, then again under the engine: frozen after a random number
    of instructions, its top frames captured and migrated to a second
    node, executed there, completed home, and the residual stack run
    to the end.  Returns None on agreement of result / uncaught class /
    interleaved stdout, ``SKIPPED`` when the random point is not
    capturable (too shallow, segment died remotely, over budget), else
    a description of the mismatch.

    instr_count/clock are deliberately *not* compared: migration
    charges capture/transfer/restore costs by design.
    """
    import random as _random

    from repro.cluster import gige_cluster
    from repro.migration import SODEngine
    from repro.migration.segments import max_migratable

    try:
        classes = preprocess_program(compile_source(source), "faulting")
    except CompileError as exc:
        return f"generator produced invalid program: {exc}"

    oracle = Machine(classes, dispatch="legacy")
    thread = oracle.spawn("G", "main", list(args))
    if oracle.run(thread, max_instrs=MIG_MAX_INSTRS) == "limit":
        return SKIPPED
    ref_err = None
    if thread.uncaught is not None:
        ref_err = (thread.uncaught.class_name,
                   thread.uncaught.fields.get("msg"))
    ref = (thread.result, ref_err, tuple(oracle.stdout))
    total = oracle.instr_count
    if total < 20:
        return SKIPPED  # nothing meaningful to freeze mid-run

    rng = _random.Random(f"minilang-mig:{seed}")
    cut = rng.randint(10, total - 1)
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "G", "main", list(args))
    eng.run(home, t, max_instrs=cut)
    if t.finished:
        # A guest exception ended the run before the cut: nothing to
        # migrate, but the replay itself must still match the oracle.
        err = None
        if t.uncaught is not None:
            err = (t.uncaught.class_name, t.uncaught.fields.get("msg"))
        got = (t.result, err, tuple(home.machine.stdout))
        if got != ref:
            return f"[mig/pre-capture] legacy={ref!r} engine={got!r}"
        return None

    nmax = min(max_migratable(t), t.depth() - 1)
    if nmax < 1:
        return SKIPPED  # frozen too shallow to ship anything
    nframes = rng.randint(1, nmax)
    try:
        worker, wt, _rec = eng.migrate(home, t, "node1", nframes)
    except MigrationError:
        return SKIPPED  # not capturable at this point (pinned frame...)
    # Prints during the run-to-MSP inside migrate() happened at home
    # before the segment left: snapshot *after* capture.
    pre = len(home.machine.stdout)
    eng.run(worker, wt)
    if wt.uncaught is not None:
        # The exception escaped the migrated segment; residual frames
        # at home may hold the matching handler, which single-segment
        # completion does not model — release the worker state and
        # treat the point as not comparable.
        eng.abandon_segment(worker, wt)
        return SKIPPED
    eng.complete_segment(worker, wt, home, t, nframes)
    eng.run(home, t)
    err = None
    if t.uncaught is not None:
        err = (t.uncaught.class_name, t.uncaught.fields.get("msg"))
    stdout = (tuple(home.machine.stdout[:pre])
              + tuple(worker.machine.stdout)
              + tuple(home.machine.stdout[pre:]))
    got = (t.result, err, stdout)
    for what, a, b in zip(("result", "uncaught", "stdout"), ref, got):
        if a != b:
            return (f"[mig cut={cut} nframes={nframes}] {what}: "
                    f"legacy={a!r} migrated={b!r}")
    return None


def tier2_migration_divergence(source: str, args: Tuple[int, int],
                               seed: int) -> Optional[str]:
    """Force deoptimization mid-compiled-region, then migrate the
    deoptimized frame.

    The engine run keeps the tier-2 JIT on (hotness threshold 1, so
    the generated program's methods compile) and freezes the thread
    with a scheduler ``quantum`` at a seeded-random instruction cut.
    Unlike ``max_instrs`` — which forces the legacy loop — the quantum
    is polled at safepoints *inside* compiled closures, so the freeze
    lands with ``frame.pc`` materialized out of a compiled region: the
    frozen frames are deoptimized tier-2 frames.  Those frames are
    then SOD-captured, migrated to a second node, executed there
    (the worker tiers up independently), completed home, and the
    result / uncaught class / interleaved stdout compared against the
    straight-line legacy oracle.
    """
    import random as _random

    from repro.cluster import gige_cluster
    from repro.migration import SODEngine
    from repro.migration.segments import max_migratable

    try:
        classes = preprocess_program(compile_source(source), "faulting")
    except CompileError as exc:
        return f"generator produced invalid program: {exc}"

    oracle = Machine(classes, dispatch="legacy")
    thread = oracle.spawn("G", "main", list(args))
    if oracle.run(thread, max_instrs=MIG_MAX_INSTRS) == "limit":
        return SKIPPED
    ref_err = None
    if thread.uncaught is not None:
        ref_err = (thread.uncaught.class_name,
                   thread.uncaught.fields.get("msg"))
    ref = (thread.result, ref_err, tuple(oracle.stdout))
    total = oracle.instr_count
    if total < 20:
        return SKIPPED  # nothing meaningful to freeze mid-run

    rng = _random.Random(f"minilang-t2mig:{seed}")
    cut = rng.randint(10, total - 1)
    with _jit_threshold(1):
        eng = SODEngine(gige_cluster(2), classes)
        home = eng.host("node0")
        t = eng.spawn(home, "G", "main", list(args))
        eng.run(home, t, quantum=cut)
        if t.finished:
            err = None
            if t.uncaught is not None:
                err = (t.uncaught.class_name, t.uncaught.fields.get("msg"))
            got = (t.result, err, tuple(home.machine.stdout))
            if got != ref:
                return f"[t2mig/pre-capture] legacy={ref!r} engine={got!r}"
            return None
        if home.machine.jit_compiles == 0:
            return SKIPPED  # nothing tiered up before the cut

        nmax = min(max_migratable(t), t.depth() - 1)
        if nmax < 1:
            return SKIPPED  # frozen too shallow to ship anything
        nframes = rng.randint(1, nmax)
        try:
            worker, wt, _rec = eng.migrate(home, t, "node1", nframes)
        except MigrationError:
            return SKIPPED  # not capturable at this point
        pre = len(home.machine.stdout)
        eng.run(worker, wt)
        if wt.uncaught is not None:
            eng.abandon_segment(worker, wt)
            return SKIPPED  # handler may live in residual home frames
        eng.complete_segment(worker, wt, home, t, nframes)
        eng.run(home, t)
    err = None
    if t.uncaught is not None:
        err = (t.uncaught.class_name, t.uncaught.fields.get("msg"))
    stdout = (tuple(home.machine.stdout[:pre])
              + tuple(worker.machine.stdout)
              + tuple(home.machine.stdout[pre:]))
    got = (t.result, err, stdout, home.machine.jit_compile_errors
           + worker.machine.jit_compile_errors)
    for what, a, b in zip(("result", "uncaught", "stdout",
                           "jit_compile_errors"), ref + (0,), got):
        if a != b:
            return (f"[t2mig cut={cut} nframes={nframes} "
                    f"compiles={home.machine.jit_compiles}] {what}: "
                    f"legacy={a!r} migrated={b!r}")
    return None


def run_tier2_migration_fuzz(base_seed: int, count: int) -> Optional[str]:
    """Fuzz the deopt-at-capture + migration path over ``count``
    generated programs.  Returns None, or a failure report with the
    minimized program."""
    checked = 0
    for i in range(count):
        seed = base_seed + i
        prog = generate(seed)
        source = prog.render()
        diff = tier2_migration_divergence(source, prog.main_args, seed)
        if diff == SKIPPED:
            continue
        checked += 1
        if diff is not None:
            small = shrink(
                prog, lambda s, a: tier2_migration_divergence(s, a, seed))
            return (f"tier-2 migration divergence at seed={seed} "
                    f"args={prog.main_args}:\n{diff}\n"
                    f"--- minimized program ---\n{small.render()}\n")
    if checked == 0:
        return (f"tier-2 migration fuzz checked 0/{count} programs "
                f"(every capture point skipped) — generator drift?")
    return None


def multihop_divergence(source: str, args: Tuple[int, int],
                        seed: int) -> Optional[str]:
    """Differentially check a Fig. 1c *multi-hop chain* at seeded-random
    capture points.

    The program freezes at a random cut, its top frames migrate
    home -> node1, the segment runs a random slice there, then re-hops
    node1 -> node2 (and, half the time, node2 -> node3) with its effects
    flushed home at each hop; the final hop runs to completion and the
    results return *directly home* (never back through the chain).
    Result / uncaught class / interleaved stdout must match the
    straight-line oracle.
    """
    import random as _random

    from repro.cluster import gige_cluster
    from repro.migration import SODEngine
    from repro.migration.segments import max_migratable

    try:
        classes = preprocess_program(compile_source(source), "faulting")
    except CompileError as exc:
        return f"generator produced invalid program: {exc}"

    oracle = Machine(classes, dispatch="legacy")
    thread = oracle.spawn("G", "main", list(args))
    if oracle.run(thread, max_instrs=MIG_MAX_INSTRS) == "limit":
        return SKIPPED
    ref_err = None
    if thread.uncaught is not None:
        ref_err = (thread.uncaught.class_name,
                   thread.uncaught.fields.get("msg"))
    ref = (thread.result, ref_err, tuple(oracle.stdout))
    total = oracle.instr_count
    if total < 40:
        return SKIPPED  # too little to slice into chain hops

    rng = _random.Random(f"minilang-mhop:{seed}")
    cut = rng.randint(10, total - 1)
    eng = SODEngine(gige_cluster(4), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "G", "main", list(args))
    eng.run(home, t, max_instrs=cut)
    if t.finished:
        err = None
        if t.uncaught is not None:
            err = (t.uncaught.class_name, t.uncaught.fields.get("msg"))
        got = (t.result, err, tuple(home.machine.stdout))
        if got != ref:
            return f"[mhop/pre-capture] legacy={ref!r} engine={got!r}"
        return None

    nmax = min(max_migratable(t), t.depth() - 1)
    if nmax < 1:
        return SKIPPED
    nframes = rng.randint(1, nmax)
    try:
        worker, wt, _rec = eng.migrate(home, t, "node1", nframes)
    except MigrationError:
        return SKIPPED
    pre = len(home.machine.stdout)

    # Chain of 2-3 hops: run a random slice on each intermediate hop,
    # then push the (whole) segment onward, anchored to home.
    hops = ["node2"] + (["node3"] if rng.random() < 0.5 else [])
    chain = [worker]
    for dst in hops:
        slice_instrs = rng.randint(1, max(1, total // 2))
        eng.run(worker, wt, max_instrs=slice_instrs)
        if wt.finished:
            break
        try:
            worker, wt, _rec = eng.rehop_segment(worker, wt, dst, home)
        except MigrationError:
            eng.abandon_segment(worker, wt)
            return SKIPPED
        chain.append(worker)
    if not wt.finished:
        eng.run(worker, wt)
    if wt.uncaught is not None:
        # Residual frames at home may hold the matching handler, which
        # direct segment completion does not model.
        eng.abandon_segment(worker, wt)
        return SKIPPED
    eng.complete_segment(worker, wt, home, t, nframes)
    eng.run(home, t)
    err = None
    if t.uncaught is not None:
        err = (t.uncaught.class_name, t.uncaught.fields.get("msg"))
    stdout = tuple(home.machine.stdout[:pre])
    for hop_host in chain:
        stdout += tuple(hop_host.machine.stdout)
    stdout += tuple(home.machine.stdout[pre:])
    got = (t.result, err, stdout)
    for what, a, b in zip(("result", "uncaught", "stdout"), ref, got):
        if a != b:
            return (f"[mhop cut={cut} nframes={nframes} "
                    f"chain={[h.node_name for h in chain]}] {what}: "
                    f"legacy={a!r} migrated={b!r}")
    return None


def run_multihop_fuzz(base_seed: int, count: int) -> Optional[str]:
    """Fuzz the multi-hop re-offload path over ``count`` generated
    programs.  Returns None, or a failure report with the minimized
    program."""
    checked = 0
    for i in range(count):
        seed = base_seed + i
        prog = generate(seed)
        source = prog.render()
        diff = multihop_divergence(source, prog.main_args, seed)
        if diff == SKIPPED:
            continue
        checked += 1
        if diff is not None:
            small = shrink(
                prog, lambda s, a: multihop_divergence(s, a, seed))
            return (f"multi-hop divergence at seed={seed} "
                    f"args={prog.main_args}:\n{diff}\n"
                    f"--- minimized program ---\n{small.render()}\n")
    if checked == 0:
        return (f"multi-hop fuzz checked 0/{count} programs "
                f"(every capture point skipped) — generator drift?")
    return None


def run_migration_fuzz(base_seed: int, count: int) -> Optional[str]:
    """Fuzz the migration path over ``count`` generated programs, each
    captured at a seeded-random point.  Returns None, or a failure
    report with the minimized program."""
    checked = 0
    for i in range(count):
        seed = base_seed + i
        prog = generate(seed)
        source = prog.render()
        diff = migration_divergence(source, prog.main_args, seed)
        if diff == SKIPPED:
            continue
        checked += 1
        if diff is not None:
            small = shrink(
                prog, lambda s, a: migration_divergence(s, a, seed))
            return (f"migration divergence at seed={seed} "
                    f"args={prog.main_args}:\n{diff}\n"
                    f"--- minimized program ---\n{small.render()}\n")
    if checked == 0:
        return (f"migration fuzz checked 0/{count} programs "
                f"(every capture point skipped) — generator drift?")
    return None


def _rotating_campaign(what: str, base_seed: int, count: int,
                       faulting_every: int, check_for) -> Optional[str]:
    """The shape the dispatch campaigns share: program ``i`` runs
    unsliced and sliced by ``QUANTA[i % len(QUANTA)]`` (where the
    preemption schedule must match too), every ``faulting_every``-th
    one also on the preprocessed (flattened + handler-injected) build.
    ``check_for(prog, build, quanta)`` returns the campaign's
    ``check(source, args)``, which the shrinker reuses.  Returns None,
    or a failure report with the minimized program."""
    for i in range(count):
        seed = base_seed + i
        prog = generate(seed)
        quanta = (QUANTA[i % len(QUANTA)],)
        builds = ["original"]
        if i % faulting_every == 0:
            builds.append("faulting")
        for build in builds:
            check = check_for(prog, build, quanta)
            diff = check(prog.render(), prog.main_args)
            if diff == SKIPPED:
                break  # over budget: still a generated program, move on
            if diff is not None:
                small = shrink(prog, check)
                return (f"{what} divergence at seed={seed} "
                        f"args={prog.main_args} build={build}:\n{diff}\n"
                        f"--- minimized program ---\n{small.render()}\n")
    return None


def run_fuzz(base_seed: int, count: int,
             modes: List[Tuple[str, Dict[str, Any]]] = MODES,
             legacy_runs: Optional[Dict[Tuple[str, Tuple[int, ...], str],
                                        Dict[Optional[int], Any]]] = None,
             faulting_every: int = 5) -> Optional[str]:
    """The dispatch differential over ``count`` generated programs (see
    :func:`_rotating_campaign`): every mode in ``modes`` (default: tier
    1; :data:`TIER2_MODES` run under a hotness threshold
    of 1 so the generated methods actually compile) against the legacy
    oracle.  ``legacy_runs``, a dict kept across calls, holds each
    program's oracle runs by (source, args, build), so that campaigns
    over the same seeds run each oracle once."""
    def check_for(prog, build, quanta):
        def check(source, args):
            oracle = None if legacy_runs is None else \
                legacy_runs.setdefault((source, tuple(args), build), {})
            return divergence(source, args, build, modes, quanta,
                              oracle=oracle)
        return check

    return _rotating_campaign("fast-tier/legacy", base_seed, count,
                              faulting_every, check_for)


# -- declared-stop fuzzing -----------------------------------------------------

#: virtual methods of the prelude hierarchy a trigger may name
_VIRTUAL_METHODS = (("V", "f"), ("V", "g"), ("VA", "f"), ("VB", "f"),
                    ("VB", "g"))


def declared_stop_for(prog: FuzzProgram) -> Any:
    """The seeded trigger of the declared-stop campaign for ``prog``:
    entry of one of its methods (or a prelude virtual one) at a seeded
    minimum depth, sometimes ``any_of`` two — a declared ``stop`` that
    fires never, once, or on every call, depending on the program."""
    from repro.vm.frames import on_method_entry
    from tests.helpers import any_of

    rng = random.Random(f"declared-stop:{prog.seed}")
    own = [("G", n) for n, _h, _s in prog.methods]
    parts = [on_method_entry(
        *rng.choice(own if rng.random() < 0.75 else _VIRTUAL_METHODS),
        min_depth=rng.choice((0, 0, 0, 2, 3, 5)))
        for _ in range(rng.choice((1, 1, 2)))]
    return parts[0] if len(parts) == 1 else any_of(*parts)


def run_declared_stop_fuzz(base_seed: int, count: int,
                           faulting_every: int = 5) -> Optional[str]:
    """A declared ``stop`` on the fast tiers vs the same predicate
    polled on the hooked loop, over ``count`` generated programs (see
    :func:`_rotating_campaign`): every stop of the ``roam`` resume
    pattern and every preemption, in all of :data:`SCHEDULE_MODES`."""
    fired = set()

    def check_for(prog, build, quanta):
        trigger = declared_stop_for(prog)

        def stop(thread):
            if trigger(thread):
                fired.add(prog.seed)
                return True
            return False
        stop.at = trigger.at
        return lambda source, args: divergence(
            source, args, build, SCHEDULE_MODES, quanta, stop=stop)

    failure = _rotating_campaign(
        "declared/undeclared stop", base_seed, count, faulting_every,
        check_for)
    if failure is None and count >= 20 and len(fired) < count // 4:
        return (f"declared-stop fuzz: a trigger fired in only "
                f"{len(fired)}/{count} programs — generator drift?")
    return failure

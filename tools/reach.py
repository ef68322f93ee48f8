#!/usr/bin/env python3
"""Which lines of ``src/repro`` does the system itself run?

    python3 tools/reach.py            # print the audit
    python3 tools/reach.py --check    # exit 1 on an unexplained unit

Runs what the system is for, in one process under ``sys.settrace``
(``sys.monitoring`` on Python 3.12+; stdlib only): the six ``bench/``
workloads at smoke size, the five ``examples/``, ``repro report``
(every table and figure), and the CLI commands CI runs plus
``workloads``, ``run Fib``, ``migrate Fib`` and ``disasm``.  Tests are not on the list: a line only a test reaches is
test tooling or a pinned corner, and the audit says which.

Executable lines are the line numbers of every code object the
compiler makes from a source file.  A *unit* is a function (reached
when it is called) or a class (reached when one of its functions is
called or a dataclass instance is made); a class with no function
bodies has no run-time lines and is not a unit.  A wholly-unreached
unit inside another unreached unit is listed under the outer one only.
Units are keyed by module and qualified name, never by line number, so
Python 3.11 and 3.12 agree; two units under one key (a property's getter
and setter, a ``def`` made twice) would let one hide the other, so
``--check`` fails on them and names both first lines.

Every wholly-unreached unit, whatever its size, needs a row in
``REASONS``, and the row names a reason the system itself has (one of
the named constants below: ``_ISA``, ``_CHAOS``, ``_FROZEN_BENCH``,
...); being pinned by a test is not one.  ``--check`` fails on a unit
with no row, and on a row that names no unit in ``src/`` (renamed or
deleted).  A row whose unit was reached in this run is only a printed
note, because the parent's share of the real backend depends on timing
(steals, crashes): its helpers are reached in some runs and not in
others, and the line totals move by a few tens between runs.  Forked
real-backend workers are not traced (tracing is switched off in the
child), so their bodies always read as unreached.
``__repr__`` is not a unit: Python calls it for tracebacks, debuggers
and test failure messages, and the audit runs none of these.
Run it in a fresh process: a module imported before the trace starts
would read as unreached at module level.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import types
from typing import Callable, Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "repro")
_MADE = object()  # the filename of generated code (dataclass methods)

# -- why an unreached unit stays in src/ ---------------------------------------

_ISA = ("guest instruction-set semantics (virtual dispatch, `switch` / "
        "`try` lowering, guest exceptions): any guest program may use "
        "them, and no audited program does")
_NATIVE = ("a native of the guest's Sys / FS / ObjMan namespaces: guest "
           "code, or code the status-check pass emits, calls it by name")
_CHAOS = ("a chaos fault type or its recovery path (crash, partition, "
          "dropped delivery, offload-abort requeue); the audited chaos "
          "run draws only some")
_FROZEN_BENCH = "a name the frozen bench/ imports or patches"
_OWNERSHIP = ("a reset of the ownership table (ROADMAP): host code that "
              "swaps a weight table or edits code in place calls it")
_REJECT = ("rejects malformed outside input: bad source text, or a guest "
           "calling a migration native with no runtime attached")
_ORACLE = ("a reference oracle: the from-scratch definition the "
           "incremental load index is compared against")
_FORKED = ("runs in a forked real-backend worker, which the audit does "
           "not trace")
_STEAL_OR_CRASH = ("parent side of the real backend, reached only when a "
                   "steal or a worker crash happens (timing)")
_MISMATCH = ("reports a replay that diverged; a run that replays "
             "byte-identically never reaches it")
_CLI = ("`serve --admission static --shed-at`, a CLI path the audit does "
        "not run")
_SRC_BRANCH = "called from src/ on a branch the audited runs do not take"

#: every wholly-unreached unit and why it stays in src/
REASONS: Dict[str, str] = {
    # the guest ISA
    "repro.lang.parser:Parser._parse_switch": _ISA,
    "repro.lang.codegen:_MethodEmitter._gen_switch": _ISA,
    "repro.lang.codegen:_MethodEmitter._gen_try": _ISA,
    "repro.vm.jit:_Compiler.gen_invokevirt": _ISA,
    "repro.vm.jit:_resolve_virtual": _ISA,
    "repro.vm.machine:Machine._resolve_method": _ISA,
    "repro.vm.machine:_bind_virtual": _ISA,
    "repro.vm.machine:_iobe": _ISA,
    "repro.vm.machine:_tname": _ISA,
    "repro.vm.machine:UncaughtGuestException": _ISA,
    "repro.vm.machine:_do_invokevirt": _ISA,
    "repro.vm.machine:_do_len": _ISA,
    "repro.vm.machine:_do_nop": _ISA,
    "repro.vm.machine:_do_not": _ISA,
    "repro.vm.machine:_do_swap": _ISA,
    "repro.vm.machine:_do_throw": _ISA,
    # guest natives
    "repro.vm.natives:_fs_read": _NATIVE,
    "repro.vm.natives:_fs_exists": _NATIVE,
    "repro.vm.natives:_sys_nominal_size": _NATIVE,
    "repro.vm.natives:_sys_sleep": _NATIVE,
    "repro.cluster.nfs:FileSystem.read": _NATIVE,
    "repro.cluster.nfs:SimFile.window": _NATIVE,
    "repro.migration.object_manager:"
    "WorkerObjectManager.install_natives.<locals>.check": _NATIVE,
    "repro.migration.object_manager:"
    "WorkerObjectManager.install_natives.<locals>.check_static": _NATIVE,
    # chaos faults and recovery
    "repro.chaos.injector:ChaosInjector._heal_partition": _CHAOS,
    "repro.cluster.network:Network.partition": _CHAOS,
    "repro.cluster.network:Network.heal_partition": _CHAOS,
    "repro.cluster.network:Network._record_drop": _CHAOS,
    "repro.migration.sodee:SODEngine.abandon_segment": _CHAOS,
    "repro.serve.scheduler:ClusterScheduler._end_segment": _CHAOS,
    "repro.serve.scheduler:ClusterScheduler._cancel_segment": _CHAOS,
    "repro.serve.scheduler:ClusterScheduler._recover_faulted": _CHAOS,
    "repro.serve.scheduler:ClusterScheduler._fail": _CHAOS,
    "repro.sim.kernel:Store.put_many": _CHAOS,
    "repro.serve.wfq:FairStore.put_many": _CHAOS,
    # names the frozen bench/ imports or patches
    "repro.vm.machine:Machine.precompile": _FROZEN_BENCH,
    "repro.preprocess.fuse:fused_coverage": _FROZEN_BENCH,
    "repro.runtime.wire:capture_to_wire": _FROZEN_BENCH,
    "repro.runtime.wire:capture_from_wire": _FROZEN_BENCH,
    # ownership-table resets
    "repro.vm.machine:Machine.invalidate_caches": _OWNERSHIP,
    "repro.bytecode.code:CodeObject.invalidate_decoded": _OWNERSHIP,
    # malformed outside input
    "repro.errors:CompileError": _REJECT,
    "repro.lang.lexer:tokenize.<locals>.error": _REJECT,
    "repro.vm.natives:"
    "install_default_natives.<locals>._unbound.<locals>.fn": _REJECT,
    # reference oracles
    "repro.serve.loadindex:naive_pick": _ORACLE,
    "repro.serve.loadindex:recompute_load": _ORACLE,
    "repro.serve.loadindex:LoadIndex.is_live": _ORACLE,
    # the real backend: forked workers, and steals / crashes
    "repro.runtime.real:_Worker": _FORKED,
    "repro.runtime.real:_worker_main": _FORKED,
    "repro.runtime.real:_encode_result": _FORKED,
    "repro.runtime.real:ControlPlane._lose": _STEAL_OR_CRASH,
    "repro.runtime.real:ControlPlane.on_death": _STEAL_OR_CRASH,
    "repro.runtime.real:_token_bytes": _STEAL_OR_CRASH,
    "repro.runtime.real:_gaveback_rids": _STEAL_OR_CRASH,
    # the rest
    "repro.chaos.trace:trace_divergence": _MISMATCH,
    "repro.chaos.trace:_first_difference": _MISMATCH,
    "repro.serve.policies:ShedWhenSaturated": _CLI,
    "repro.vm.machine:Machine.has_namespace": _SRC_BRANCH,
}

_DISASM_SRC = """
class Demo {
  static int twice(int n) { return n + n; }
  static int main(int n) { return Demo.twice(n) + 1; }
}
"""


# -- what runs -------------------------------------------------------------------


def _bench() -> None:
    from bench import workloads
    for name in ("serve_paper", "serve_offload", "serve_scale",
                 "real_paper", "paper_migration", "vm_solo"):
        work, streams = workloads.make(name, True)
        work.setup()
        for k in range(streams):
            rep = work.rep(workloads.stream_seed(7, k), k)
            if rep["ok"] != rep["attempted"]:
                raise SystemExit(f"bench {name}: {rep['ok']} of "
                                 f"{rep['attempted']} correct")


def _examples() -> None:
    folder = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            runpy.run_path(os.path.join(folder, name), run_name="__main__")


def _cli(tmp: str) -> None:
    from repro.__main__ import main
    source = os.path.join(tmp, "demo.mj")
    with open(source, "w") as f:
        f.write(_DISASM_SRC)
    trace = os.path.join(tmp, "chaos_trace.json")
    commands = [
        ["report"], ["workloads"], ["run", "Fib"], ["migrate", "Fib"],
        ["disasm", source],
        ["serve", "--mix", "paper", "--nodes", "4", "--requests", "16",
         "--max-seg-hops", "2"],
        ["serve", "--mix", "parallel", "--nodes", "4", "--requests", "48",
         "--tenants", "gold:w=3,silver:w=2:p=1,free:p=2:r=6",
         "--arrival-rate", "300", "--admission", "adaptive",
         "--slo", "0.1"],
        ["serve", "--mix", "paper", "--backend", "real", "--procs", "2",
         "--requests", "12", "--crosscheck"],
        ["serve", "--chaos", "42", "--placement", "front-door",
         "--record", trace],
        ["serve", "--replay", trace],
    ]
    for argv in commands:
        code = main(argv)
        if code:
            raise SystemExit(f"repro {' '.join(argv)} exited {code}")


# -- the tracer --------------------------------------------------------------------


class Reach:
    """Line and call hits for the files under ``src/repro``."""

    def __init__(self) -> None:
        self.lines: Dict[str, Set[int]] = {}
        #: id(code) -> code, for every src code object that was called
        self.called: Dict[int, types.CodeType] = {}
        #: classes instantiated through a generated (dataclass) __init__
        self.made: Set[type] = set()
        self._file: Dict[str, object] = {}
        self._local: Dict[str, Callable] = {}

    def _resolve(self, filename: str):
        path = os.path.realpath(filename)
        hit = _MADE if filename == "<string>" else None
        if path.startswith(PKG + os.sep) and path.endswith(".py"):
            hit = self.lines.setdefault(path, set())
            add = hit.add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local
            self._local[filename] = local
        self._file[filename] = hit
        return hit

    def _started(self, co: types.CodeType, frame) -> Optional[Set[int]]:
        """Record a call of ``co``, running in ``frame``; the hit set of
        its file, or None when ``co`` is not under ``src/repro``."""
        hit = self._file.get(co.co_filename, 0)
        if hit == 0:
            hit = self._resolve(co.co_filename)
        if hit is _MADE:
            if co.co_name == "__init__" and id(co) not in self.called:
                self.called[id(co)] = co
                self.made.add(type(frame.f_locals.get("self")))
            return None
        if hit is not None:
            self.called[id(co)] = co
            hit.add(co.co_firstlineno)
        return hit

    def _call(self, frame, event, arg):
        if self._started(frame.f_code, frame) is None:
            return None
        return self._local[frame.f_code.co_filename]

    def _py_start(self, co: types.CodeType, offset: int):
        self._started(co, sys._getframe(1))
        return sys.monitoring.DISABLE

    def _line(self, co: types.CodeType, line: int):
        hit = self._file.get(co.co_filename, 0)
        if hit == 0:
            hit = self._resolve(co.co_filename)
        if hit is not None and hit is not _MADE:
            hit.add(line)
        return sys.monitoring.DISABLE

    @contextlib.contextmanager
    def tracing(self):
        """``sys.settrace`` on 3.11; on 3.12+ ``sys.monitoring``, whose
        events report once per location and are then disabled (settrace
        there costs minutes more for the same hits)."""
        stale = [m for m in sys.modules if m == "repro"
                 or m.startswith("repro.")]
        if stale:
            raise SystemExit(f"imported before the trace: {stale[:3]}")
        mon = getattr(sys, "monitoring", None)
        if mon is None:
            os.register_at_fork(after_in_child=lambda: sys.settrace(None))
            threading.settrace(self._call)
            sys.settrace(self._call)
            try:
                yield
            finally:
                sys.settrace(None)
                threading.settrace(None)
            return
        tool = mon.COVERAGE_ID
        mon.use_tool_id(tool, "reach")
        mon.register_callback(tool, mon.events.PY_START, self._py_start)
        mon.register_callback(tool, mon.events.LINE, self._line)
        os.register_at_fork(after_in_child=lambda: mon.set_events(tool, 0))
        mon.set_events(tool, mon.events.PY_START | mon.events.LINE)
        try:
            yield
        finally:
            mon.set_events(tool, 0)
            mon.free_tool_id(tool)


# -- what is executable -----------------------------------------------------------


def _module(path: str) -> str:
    rel = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
    return rel[:-len(".__init__")] if rel.endswith(".__init__") else rel


def _lines(co: types.CodeType) -> Set[int]:
    return {ln for _s, _e, ln in co.co_lines() if ln}


def _children(co: types.CodeType) -> List[types.CodeType]:
    return [c for c in co.co_consts if isinstance(c, types.CodeType)]


def _spans(tree) -> Dict[Tuple[str, int], int]:
    """(qualname, first line incl. decorators) -> last line, per
    ``def`` / ``class`` in a parsed module."""
    out: Dict[Tuple[str, int], int] = {}

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                out[(qual, first)] = child.end_lineno
                walk(child, qual + ("." if isinstance(child, ast.ClassDef)
                                    else ".<locals>."))
            else:
                walk(child, prefix)
    walk(tree, "")
    return out


def audit(reach: Reach) -> Dict[str, object]:
    """Totals, per-file unreached counts, the maximal wholly-unreached
    units (key -> span in lines), the key of every unit and the keys two
    units share (key -> their first lines)."""
    called = {(os.path.realpath(co.co_filename), co.co_firstlineno,
               co.co_qualname) for co in reach.called.values()}
    made = {f"{c.__module__}:{c.__qualname__}"
            for cls in reach.made for c in cls.__mro__}
    total = hit_total = 0
    per_file: Dict[str, Tuple[int, int]] = {}
    units: Dict[str, int] = {}
    known: Set[str] = set()
    firsts: Dict[str, Set[int]] = {}
    for folder, _dirs, files in sorted(os.walk(PKG)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as f:
                text = f.read()
            top = compile(text, path, "exec", dont_inherit=True)
            spans = _spans(ast.parse(text))
            lines: Set[int] = set()
            stack = [top]
            while stack:
                co = stack.pop()
                lines |= _lines(co)
                stack.extend(_children(co))
            hit = reach.lines.get(path, set()) & lines
            total += len(lines)
            hit_total += len(hit)
            per_file[os.path.relpath(path, SRC)] = (len(lines) - len(hit),
                                                    len(lines))
            mod = _module(path)

            def visit(co: types.CodeType) -> bool:
                """Record unreached units under ``co``; True if anything
                in it was called."""
                func = bool(co.co_flags & 1)  # CO_OPTIMIZED
                inner = [visit(c) for c in _children(co)]
                if func:
                    live = (path, co.co_firstlineno, co.co_qualname) in called
                else:
                    live = any(inner) or f"{mod}:{co.co_qualname}" in made
                if func and (co.co_name.startswith("<")
                             or co.co_name == "__repr__"):
                    return live
                has_body = func or any(c.co_flags & 1
                                       for c in _children(co))
                key = f"{mod}:{co.co_qualname}"
                if co is not top and has_body:
                    known.add(key)
                    firsts.setdefault(key, set()).add(co.co_firstlineno)
                if co is not top and has_body and not live:
                    end = spans[(co.co_qualname, co.co_firstlineno)]
                    for sub in [k for k in units
                                if k.startswith(key + ".")]:
                        del units[sub]
                    units[key] = end - co.co_firstlineno + 1
                return live or any(inner)
            visit(top)
    shared = {k: sorted(v) for k, v in firsts.items() if len(v) > 1}
    return {"total": total, "reached": hit_total, "per_file": per_file,
            "units": units, "known": known, "shared": shared}


def run_all(reach: Reach) -> None:
    sys.path[:0] = [SRC, ROOT]
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), reach.tracing():
        _bench()
        _examples()
        _cli(tmp)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if a wholly-unreached unit has no row in "
                         "REASONS, a row names no unit in src/, or two "
                         "units share a key")
    args = ap.parse_args(argv)
    reach = Reach()
    run_all(reach)
    out = audit(reach)
    total, reached = out["total"], out["reached"]
    print(f"reached {reached} of {total} executable lines under src/repro;"
          f" {total - reached} unreached "
          f"({100 * (total - reached) / total:.1f}%)")
    print("\nunreached lines by file (unreached / executable):")
    for rel, (miss, n) in sorted(out["per_file"].items(),
                                 key=lambda kv: -kv[1][0]):
        if miss:
            print(f"  {miss:5d} / {n:5d}  {rel}")
    units = out["units"]
    print(f"\nwholly-unreached units ({len(units)}; lines, key, reason):")
    for key in sorted(units):
        print(f"  {units[key]:4d}  {key}: {REASONS.get(key, 'NO REASON')}")
    noted = sorted(k for k in REASONS if k in out["known"] and k not in units)
    if noted:
        print(f"\nREASONS rows not listed as unreached in this run: {noted}")
    missing = sorted(set(units) - set(REASONS))
    stale = sorted(set(REASONS) - out["known"])
    shared = out["shared"]
    if args.check and (missing or stale or shared):
        if missing:
            print(f"\nFAIL: no reason for {missing}", file=sys.stderr)
        if stale:
            print(f"\nFAIL: REASONS rows naming no unit in src/: {stale}",
                  file=sys.stderr)
        for key, lines in sorted(shared.items()):
            print(f"\nFAIL: units at lines {lines} share the key {key}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

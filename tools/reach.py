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
Python 3.11 and 3.12 agree.

Every wholly-unreached unit of ``MIN_UNIT`` lines or more needs a row
in ``REASONS``; ``--check`` fails when one has none.  Smaller ones are
listed and do not fail.  Forked real-backend workers are not traced
(tracing is switched off in the child), so their bodies read as
unreached here, and the parent's share of the real backend depends on
timing (steals), so the line totals move by a few tens between runs.
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
MIN_UNIT = 20
_MADE = object()  # the filename of generated code (dataclass methods)

#: wholly-unreached units of MIN_UNIT lines or more (and a few smaller
#: ones kept on purpose), and why each stays in src/
REASONS: Dict[str, str] = {
    "repro.vm.machine:Machine.precompile":
        "test seam that forces tier 2; a frozen-tracer patch target "
        "(bench/metrics.MISSING_TARGET_METRICS)",
    "repro.vm.machine:Machine.invalidate_caches":
        "the reset of the per-machine cost row of the ownership table "
        "(ROADMAP); tests/test_jit.py swaps weights through it",
    "repro.serve.loadindex:naive_pick":
        "reference oracle the load-index tests compare pick() against",
    "repro.serve.loadindex:recompute_load":
        "reference oracle the load-index tests compare the incremental "
        "counters against",
    "repro.runtime.real:_Worker":
        "the forked worker's body: it runs in the child, which the audit "
        "does not trace",
    "repro.runtime.real:ControlPlane._lose":
        "worker-death recovery (chaos crash_node); pinned by "
        "tests/test_control_plane.py and tests/test_runtime_backends.py's "
        "worker-crash test",
    "repro.runtime.wire:capture_to_wire":
        "step-1 transport of ROADMAP direction E; pinned by the wire "
        "fuzzer and tests/goldens",
    "repro.runtime.wire:capture_from_wire":
        "step-1 transport of ROADMAP direction E; pinned by the wire "
        "fuzzer and tests/goldens",
    "repro.serve.scheduler:ClusterScheduler._end_segment":
        "chaos recovery: a segment's death on a crashed node or dropped "
        "delivery; pinned by tests/test_chaos.py",
    "repro.serve.policies:ShedWhenSaturated":
        "`serve --admission static --shed-at`; the static arm of "
        "benchmarks/test_overload.py",
    "repro.lang.parser:Parser._parse_switch":
        "`switch` lowers to LSWITCH, part of the ISA; the differential "
        "fuzzers generate it (tests/minilang_fuzz.py)",
    "repro.lang.codegen:_MethodEmitter._gen_switch":
        "`switch` lowers to LSWITCH, part of the ISA; the differential "
        "fuzzers generate it (tests/minilang_fuzz.py)",
    "repro.vm.jit:_Compiler.gen_invokevirt":
        "INVOKEVIRT is part of the ISA, pinned by the differential "
        "fuzzers; no bench workload makes a virtual call",
    "repro.cluster.nfs:SimFile.window":
        "the FS.read native's content (PhotoServer.fetchPhoto); pinned "
        "by tests/test_cluster.py",
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
    """Totals, per-file unreached counts and the maximal wholly-unreached
    units (key -> span in lines)."""
    called = {(os.path.realpath(co.co_filename), co.co_firstlineno,
               co.co_qualname) for co in reach.called.values()}
    made = {f"{c.__module__}:{c.__qualname__}"
            for cls in reach.made for c in cls.__mro__}
    total = hit_total = 0
    per_file: Dict[str, Tuple[int, int]] = {}
    units: Dict[str, int] = {}
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
                if func and co.co_name.startswith("<"):
                    return live
                has_body = func or any(c.co_flags & 1
                                       for c in _children(co))
                if co is not top and has_body and not live:
                    key = f"{mod}:{co.co_qualname}"
                    end = spans[(co.co_qualname, co.co_firstlineno)]
                    for sub in [k for k in units
                                if k.startswith(key + ".")]:
                        del units[sub]
                    units[key] = end - co.co_firstlineno + 1
                return live or any(inner)
            visit(top)
    return {"total": total, "reached": hit_total, "per_file": per_file,
            "units": units}


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
                    help="exit 1 if a wholly-unreached unit of "
                         f"{MIN_UNIT}+ lines has no row in REASONS")
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
    big = {k: n for k, n in units.items() if n >= MIN_UNIT}
    print(f"\nwholly-unreached units of {MIN_UNIT}+ lines:")
    for key in sorted(big):
        print(f"  {big[key]:4d}  {key}: {REASONS.get(key, 'NO REASON')}")
    small = sorted(k for k, n in units.items() if n < MIN_UNIT)
    print(f"\nwholly-unreached units under {MIN_UNIT} lines "
          f"({len(small)}; listed, not checked):")
    for key in small:
        print(f"  {units[key]:4d}  {key}")
    stale = sorted(set(REASONS) - set(units))
    if stale:
        print(f"\nREASONS rows whose unit is reached now: {stale}")
    missing = sorted(set(big) - set(REASONS))
    if args.check and missing:
        print(f"\nFAIL: no reason for {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

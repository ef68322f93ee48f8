"""Request-mix scenarios for the elastic serving layer.

A *serve program* is a guest program small enough that one request is a
few thousand to a few hundred thousand instructions — web-request scale
rather than batch scale.  A *request mix* is a weighted catalogue of
(program, args) pairs from which a seeded load generator draws a
deterministic request stream.

Programs are marked **reentrant** (no mutable statics: safe to
time-slice many requests on one machine's shared cells) or
**isolated** (statics carry working state — FFT and TSP from the paper
registry).  Isolated programs used to be excluded from every mix;
since class-loader namespaces landed, the scheduler gives each such
request its own namespace (its own static cells, on every node it
migrates through), so the ``"paper"`` mix serves the full registry
concurrently — including offload, migration, and multi-hop chains.
Reentrant programs skip the namespace entirely and keep the original
zero-overhead path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Tuple

from repro.bytecode.code import ClassFile
from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.vm.machine import Machine
from repro.workloads import programs


@dataclass(frozen=True)
class ServeProgram:
    """One servable guest program: source + entry point.

    ``reentrant=False`` marks a program whose mutable statics carry
    request state: the scheduler must serve each request of it inside
    a fresh class-loader namespace (per-request static cells)."""

    name: str
    source: str
    main: Tuple[str, str]
    reentrant: bool = True


SERVE_PROGRAMS: Dict[str, ServeProgram] = {
    "Fib": ServeProgram("Fib", programs.FIB, ("Fib", "main")),
    "NQ": ServeProgram("NQ", programs.NQUEENS, ("NQ", "main")),
    "MM": ServeProgram("MM", programs.MATMUL, ("MM", "main")),
    "Primes": ServeProgram("Primes", programs.PRIMES, ("Primes", "main")),
    "QS": ServeProgram("QS", programs.QSORT, ("QS", "main")),
    # The paper registry's statics-heavy pair: working state lives in
    # static fields (FFT's arrays/result, TSP's distance matrix and
    # best bound), so concurrent requests need namespace isolation.
    "FFT": ServeProgram("FFT", programs.FFT, ("FFT", "main"),
                        reentrant=False),
    "TSP": ServeProgram("TSP", programs.TSP, ("TSP", "main"),
                        reentrant=False),
}


def needs_isolation(program: str) -> bool:
    """Does a request of ``program`` require its own class-loader
    namespace (non-reentrant statics)?"""
    return not SERVE_PROGRAMS[program].reentrant


@lru_cache(maxsize=None)
def serve_compiled(name: str) -> Dict[str, ClassFile]:
    """Compile + preprocess a serve program on the faulting build (the
    build migration needs: MSPs, fault handlers, restoration prologues)."""
    return preprocess_program(compile_source(SERVE_PROGRAMS[name].source),
                              "faulting")


def serve_classpath(names: Iterable[str]) -> Dict[str, ClassFile]:
    """The merged classpath serving every program in ``names``.

    Program class names are disjoint by construction; the compiler's
    builtin classes (Throwable etc.) collide by name with identical
    definitions, so last-merge-wins is safe.
    """
    merged: Dict[str, ClassFile] = {}
    for name in names:
        merged.update(serve_compiled(name))
    return merged


@dataclass(frozen=True)
class RequestSpec:
    """One admissible request: which program, with which arguments."""

    program: str
    args: Tuple[Any, ...]

    @property
    def main(self) -> Tuple[str, str]:
        return SERVE_PROGRAMS[self.program].main

    def label(self) -> str:
        return f"{self.program}{self.args}"


@lru_cache(maxsize=None)
def expected_request_result(spec: RequestSpec) -> Any:
    """Correctness oracle: the request's result on a standalone
    legacy-dispatch machine over the program's ``original`` build.

    Independent of the serving layer, of the fast interpreter loops
    *and* of the class preprocessor: the served ``faulting`` build
    (flattening, MSPs, object-fault and restoration handlers) never
    runs here, so a preprocessor bug shows up as a mismatch instead of
    in both results alike.  The classes are built per call and dropped;
    only the result is cached."""
    classes = preprocess_program(
        compile_source(SERVE_PROGRAMS[spec.program].source), "original")
    m = Machine(classes, dispatch="legacy")
    return m.call(spec.main[0], spec.main[1], list(spec.args))


@dataclass(frozen=True)
class RequestMix:
    """A weighted request catalogue with a deterministic draw."""

    name: str
    choices: Tuple[Tuple[RequestSpec, float], ...]
    description: str = ""

    def programs(self) -> List[str]:
        return sorted({spec.program for spec, _w in self.choices})

    def draw(self, n: int, seed: int = 0) -> List[RequestSpec]:
        """``n`` requests drawn by weight.  String-seeded ``Random`` is
        hashed with SHA-512, so the stream is stable across processes
        and interpreter versions (pytest-randomly cannot perturb it)."""
        rng = random.Random(f"mix:{self.name}:{seed}")
        specs = [spec for spec, _w in self.choices]
        weights = [w for _spec, w in self.choices]
        return rng.choices(specs, weights=weights, k=n)


def _mix(name: str, description: str,
         *choices: Tuple[str, Tuple[Any, ...], float]) -> RequestMix:
    return RequestMix(name, tuple(
        (RequestSpec(prog, args), w) for prog, args, w in choices),
        description)


#: the serving scenarios the benchmarks and tests draw from
MIXES: Dict[str, RequestMix] = {
    # Embarrassingly parallel: similar-sized, CPU-bound, independent
    # requests — the near-linear-scaling acceptance scenario.
    "parallel": _mix(
        "parallel",
        "uniform CPU-bound requests; throughput should scale ~linearly",
        ("Fib", (14,), 1.0),
        ("NQ", (5,), 1.0),
        ("Primes", (300,), 1.0),
        ("MM", (9,), 1.0),
    ),
    # Mixed sizes: light lookups interleaved with heavier compute.
    "mixed": _mix(
        "mixed",
        "varied request sizes; scheduler fairness and handoff matter",
        ("NQ", (5,), 3.0),
        ("Primes", (400,), 3.0),
        ("Fib", (14,), 2.0),
        ("QS", (220,), 2.0),
        ("MM", (10,), 1.0),
    ),
    # Scale: light, uniform, CPU-bound requests (~8-11k instructions
    # each) sized so thousands of them sweep across dozens of nodes in
    # tractable host time — the O(log n) scheduling benchmark scenario.
    "scale": _mix(
        "scale",
        "thousands of light requests; scheduler decision cost dominates",
        ("Fib", (11,), 1.0),
        ("NQ", (4,), 1.0),
        ("Primes", (60,), 1.0),
        ("Primes", (80,), 1.0),
    ),
    # Hotspot: mostly light traffic plus a tail of heavy requests that
    # pile onto whichever node admitted them — the SOD-offload scenario.
    "hotspot": _mix(
        "hotspot",
        "light traffic with a heavy tail; offload rescues stragglers",
        ("NQ", (5,), 5.0),
        ("Primes", (300,), 4.0),
        ("Fib", (17,), 1.0),
        ("QS", (400,), 1.0),
    ),
    # The full paper registry, statics-heavy programs included: FFT
    # keeps its arrays and result in statics, TSP its distance matrix
    # and best-tour bound — each such request runs in its own
    # class-loader namespace (fresh static cells on every node it
    # touches), so heavy traffic, offload and multi-hop chains all
    # work on programs that were previously excluded from serving.
    # Sizes span light lookups (TSP n=5, ~18k instrs) to heavy compute
    # (FFT 4x4 2D transform + checksum, ~145k instrs).
    "paper": _mix(
        "paper",
        "the whole registry incl. non-reentrant FFT/TSP via namespaces",
        ("FFT", (4, 8), 2.0),
        ("TSP", (5,), 3.0),
        ("TSP", (6,), 1.0),
        ("Fib", (14,), 2.0),
        ("NQ", (5,), 2.0),
    ),
    # Offload-heavy: uniformly heavy, deep-stacked requests (~100-250k
    # instructions, dozens of quanta each) — nearly every thread lives
    # long enough to be worth shipping, so migration transfer cost is
    # the dominant overhead.  The migration fast-path benchmark runs
    # this through a single front door: elasticity comes entirely from
    # SOD offloads (and, with max_seg_hops > 0, Fig. 1c chains).
    "offload": _mix(
        "offload",
        "uniformly heavy deep requests; migration cost dominates",
        ("Fib", (16,), 3.0),
        ("QS", (400,), 2.0),
        ("Primes", (600,), 2.0),
        ("NQ", (6,), 1.0),
    ),
}

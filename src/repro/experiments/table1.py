"""Table I — program characteristics (n, max stack height h, field bytes F).

The paper's h and F are properties of the full-size runs; ours are
measured at the reduced simulation sizes from the *real* stack at the
migration trigger and the real captured field/static footprint.  Both
are printed side by side.
"""

from __future__ import annotations

from repro.experiments.common import Table
from repro.migration import SODEngine
from repro.cluster import gige_cluster
from repro.units import fmt_bytes
from repro.vm.costmodel import sodee_model
from repro.vm.objects import VMArray, VMInstance
from repro.workloads import WORKLOADS, calibrated_instr_seconds, compiled

PAPER = {
    "Fib": (46, 46, "< 10"),
    "NQ": (14, 16, "< 10"),
    "FFT": (256, 4, "> 64M"),
    "TSP": (12, 4, "~ 2500"),
}


def measure(workload: str):
    """Stack height and field footprint at the migration trigger."""
    w = WORKLOADS[workload]
    eng = SODEngine(gige_cluster(2), compiled(workload, "faulting"),
                    cost=sodee_model(calibrated_instr_seconds(workload)))
    home, thread = eng.start(w.main[0], w.main[1], list(w.sim_args))
    eng.run(home, thread, stop=w.trigger())
    h = thread.depth()
    # F: accumulated size of local + static fields, following references
    # from statics through the heap (the paper's FFT F counts its 64 MB
    # static array; TSP's counts the distance structure).
    f_bytes = 0
    for frame in thread.frames:
        f_bytes += 8 * frame.code.max_locals
    seen: set[int] = set()
    work = []
    for cls in home.machine.loader.loaded_classes().values():
        for v in cls.statics.values():
            if isinstance(v, (VMArray, VMInstance)):
                work.append(v)
            elif isinstance(v, str):
                f_bytes += 4 + len(v)
            else:
                f_bytes += 8
    while work:
        obj = work.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        f_bytes += obj.nominal_bytes()
        children = (obj.fields.values() if isinstance(obj, VMInstance)
                    else (obj.data if obj.kind == "ref" else ()))
        for v in children:
            if isinstance(v, (VMArray, VMInstance)):
                work.append(v)
    return h, f_bytes


def run() -> Table:
    t = Table(
        title="Table I — program characteristics (paper vs repro)",
        header=("App", "n(paper)", "h(paper)", "F(paper)",
                "n(sim)", "h(sim)", "F(sim)"),
    )
    for name, w in WORKLOADS.items():
        h, f = measure(name)
        pn, ph, pf = PAPER[name]
        t.add(name, pn, ph, pf, w.sim_args[0], h, fmt_bytes(f))
    t.notes.append(
        "h(sim) is the real stack depth at the migration trigger; "
        "F(sim) includes nominal bytes of static-referenced arrays.")
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().format())

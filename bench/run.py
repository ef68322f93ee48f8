#!/usr/bin/env python3
"""One benchmark, two clocks.

    python3 bench/run.py [--workload W] [--seed 7] [--seconds 12]
                         [--trace [0|1]] [--smoke] [--out DIR]

Runs the named workload (all six without ``--workload``), checks every
output against an independent oracle, prints every metric by name with
its unit, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A wrong
answer, a lost request or an unexpected exception makes the exit code
non-zero.

Each workload runs in its own subprocess with ``PYTHONHASHSEED`` pinned
and the ``REPRO_*`` / ``BENCH_*`` environment knobs of the program
removed; two more fresh subprocesses repeat only the set-up, so
``setup_s`` is a median of three cold starts.  Results and the trace
go under ``--out`` (default ``bench/out/``, git-ignored).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from statistics import median
from time import perf_counter

_T0 = perf_counter()  # set-up time starts before the program is imported

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# the script directory must not shadow the stdlib (``trace``)
sys.path[0] = ROOT
sys.path.insert(1, SRC)

CHILD_TIMEOUT_S = 170


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- child: one workload, measured -------------------------------------------------

#: the calibration spin's duration on the host the benchmark was sized
#: on; host times are scaled by ``REF_SPIN_S / measured spin`` so they
#: read as seconds *at that reference speed*
REF_SPIN_S = 0.035
_SPIN_DATA = list(range(1 << 15))


def spin() -> float:
    """Host seconds of a fixed pure-Python loop (list reads, integer
    arithmetic, dict writes).  This sandbox's speed drifts by tens of
    percent over minutes — far more than any bound worth having — so a
    spin brackets every timed repetition and set-up, and the host
    metrics are reported relative to it."""
    data, mask, table, acc = _SPIN_DATA, len(_SPIN_DATA) - 1, {}, 0
    t0 = perf_counter()
    for i in range(300_000):
        v = data[(i * 7) & mask]
        acc += v * i % 7
        table[v & 1023] = acc
    return perf_counter() - t0


def same_exact(a, b) -> bool:
    """``exact`` values equal — floats up to 1e-9 relative: the paper
    runners' clocks differ in the last ulp with tier-up history (their
    class files, hotness counters included, are cached per process),
    which is summation order, not a different outcome."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            same_exact(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(same_exact, a, b))
    return a == b


def peak_rss_mb() -> float:
    """Peak resident set so far: this process plus its largest reaped
    child (the real backend's workers)."""
    import resource
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            out_dir: str) -> dict:
    """Set up, then serve *blocks* — each a balanced set of ``streams``
    request streams — until the time budget is spent.

    Untraced, every block serves fresh streams (host metrics average
    over as many inputs as the budget buys) and one last repetition
    replays the very first stream: its exact values must repeat.  With
    tracing, block 1 replays block 0's streams under the tracer and
    must reproduce block 0's exact values — tracing may not perturb the
    modeled outcome.  Virtual metrics always come from block 0 alone,
    so they are a function of the seed and nothing else."""
    from bench import metrics, workloads

    tracer = None
    build_agg: dict = {}
    if trace:
        import repro.serve  # noqa: F401  (load the layers to be wrapped)
        import repro.runtime.real  # noqa: F401
        import repro.experiments.common  # noqa: F401
        from bench.trace import Tracer, aggregate, write_jsonl
        tracer = Tracer()
        tracer.install()
    work, streams = workloads.make(name, smoke)
    work.setup()
    setup_s = perf_counter() - _T0
    setup_s *= REF_SPIN_S / min(spin(), spin())
    if tracer is not None:
        build_agg = aggregate(tracer.spans)
        tracer.uninstall()

    reps: list = []        # untraced repetitions, in order
    traced: list = []      # traced repetitions (block 0's streams again)
    mismatches: list = []
    spins = [spin()]

    def one(index: int, k: int, sink: list) -> None:
        tracing = sink is traced
        gc.collect()  # the previous cluster's garbage is not this rep's
        if tracing:
            # a root span, so every span of the repetition has a parent
            # and self times add up to the repetition
            tracer.begin("bench.rep", node=f"stream{index}")
        try:
            rep = work.rep(workloads.stream_seed(seed, index), k)
        finally:
            if tracing:
                tracer.end()
        spins.append(spin())
        rep["stream"] = index
        rep["ref_s"] = rep["wall_s"] * REF_SPIN_S / (
            (spins[-2] + spins[-1]) / 2)
        if index < len(reps) and not same_exact(rep["exact"],
                                                 reps[index]["exact"]):
            mismatches.append(index)
        sink.append(rep)

    t_start = perf_counter()
    blocks = 0
    while True:
        for k in range(streams):
            one(blocks * streams + k, k, reps)
        blocks += 1
        if trace and blocks == 1:
            rss_mb = peak_rss_mb()  # before the spans pile up in memory
            tracer.reset()  # the set-up phase's spans are in build_agg
            tracer.install()
            for k in range(streams):
                one(k, k, traced)
            tracer.uninstall()
            agg = aggregate(tracer.spans)
            layer = metrics.per_layer(name, reps[:streams], agg,
                                      build_agg, tracer)
        spent = perf_counter() - t_start
        per_rep = spent / (len(reps) + len(traced))
        replay = 0 if trace else per_rep
        if smoke or spent + replay + 0.5 * per_rep * streams > seconds:
            break
    if not trace:
        # the determinism replay of stream 0; a host sample too when it
        # is a whole block by itself
        one(0, 0, reps if streams == 1 else [])
        blocks += streams == 1

    attempted = sum(r["attempted"] for r in reps + traced)
    ok = sum(r["ok"] for r in reps + traced)
    if not trace:
        rss_mb = peak_rss_mb()
    by_block = [reps[i:i + streams] for i in range(0, len(reps), streams)]
    result = {
        "workload": name, "seed": seed, "smoke": smoke,
        "blocks": blocks, "reps": len(reps), "traced_reps": len(traced),
        "attempted": attempted, "ok": ok,
        "deterministic": not mismatches, "mismatches": mismatches,
        "end_to_end": metrics.end_to_end(reps, setup_s, rss_mb),
        "virtual": metrics.virtual(name, reps[:streams], reps + traced),
        "host_spread": metrics.block_spread(by_block),
        "host_speed": {"ref_spin_s": REF_SPIN_S, "spin_s": spins,
                       "raw_wall_s": [r["wall_s"] for r in reps]},
    }
    if trace:
        layer.update(metrics.host_layer(reps, traced))
        result["per_layer"] = layer
        result["trace"] = {
            "spans": len(tracer.spans),
            "self_s_by_name": {n: row["self_s"]
                               for n, row in sorted(agg.items())},
            # the root spans also cover each repetition's own checking
            # of results, so the sum sits a little above the timed part
            "self_sum_s": sum(row["self_s"] for row in agg.values()),
            "traced_wall_s": sum(r["wall_s"] for r in traced),
            "missing_targets": tracer.missing,
        }
        os.makedirs(out_dir, exist_ok=True)
        write_jsonl(os.path.join(out_dir, f"{name}.trace.jsonl"),
                    tracer.spans)
    return result


def child_main(args: argparse.Namespace) -> int:
    if args.child == "setup":
        from bench import workloads
        work, _streams = workloads.make(args.workload, args.smoke)
        work.setup()
        setup_s = perf_counter() - _T0
        print(json.dumps(
            {"setup_s": setup_s * REF_SPIN_S / min(spin(), spin())}))
        return 0
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke, args.out)
    print(json.dumps(result))
    return 0


# -- parent: orchestration and output ---------------------------------------------------


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def spawn(args: argparse.Namespace, workload: str, phase: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "BENCH_"))}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.abspath(__file__), "--child", phase,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", args.out]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {phase} subprocess exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace, workload: str, spec: dict
                 ) -> dict:
    from bench.metrics import NOT_MEASURED
    setups = [] if args.smoke else [
        spawn(args, workload, "setup")["setup_s"] for _ in range(2)]
    result = spawn(args, workload, "run")
    if not (args.trace and setups):
        # a traced set-up is slower; it only counts when it is all there is
        setups.append(result["end_to_end"]["setup_s"])
    result["end_to_end"]["setup_s"] = median(setups)
    result["host_spread"]["setup_s"] = {
        "median": median(setups), "min": min(setups), "max": max(setups),
        "n": len(setups),
        "spread": (max(setups) - min(setups)) / median(setups)}
    result["host"] = host_facts()

    measured = dict(result["end_to_end"])
    measured.update(result["virtual"])
    measured.update(result.get("per_layer", {}))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"]
             for key in ("end_to_end", "per_layer") for m in spec[key]}
    out = {}
    for m in spec[section]:
        value = measured.get(m["name"])
        out[m["name"]] = {
            "value": NOT_MEASURED if value is None else value,
            "unit": m["unit"]}
    failed = result["attempted"] - result["ok"]
    result["correct"] = failed == 0 and result["deterministic"]
    result["line"] = {"correct": result["correct"],
                      "attempted": result["attempted"], "failed": failed,
                      "metrics": out}
    report(workload, result, measured, units)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{workload}.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def report(workload: str, result: dict, measured: dict, units: dict
           ) -> None:
    """Every metric by name with its unit (``-`` = not measured here)."""
    print(f"== {workload}  seed={result['seed']}  blocks={result['blocks']}"
          f"  reps={result['reps']}+{result['traced_reps']} traced  "
          f"attempted={result['attempted']} ok={result['ok']} "
          f"failed={result['attempted'] - result['ok']}  "
          f"deterministic={result['deterministic']}")
    for name, unit in units.items():
        value = measured.get(name)
        shown = "-" if value is None else f"{value:.6g}"
        extra = ""
        sp = result["host_spread"].get(name)
        if sp:
            extra = (f"   [min {sp['min']:.4g} max {sp['max']:.4g} "
                     f"n={sp['n']}]")
        print(f"  {name:<44} {shown:>14} {unit}{extra}")
    if "trace" in result:
        t = result["trace"]
        print(f"  spans={t['spans']}  self-time sum {t['self_sum_s']:.4f} s"
              f" of traced wall {t['traced_wall_s']:.4f} s")
        for target in t["missing_targets"]:
            print(f"  warning: patch target missing: {target}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: proves the plumbing, not the numbers")
    ap.add_argument("--out", default=os.path.join(ROOT, "bench", "out"))
    ap.add_argument("--child", choices=("setup", "run"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("bench/run.py: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    spec = declared()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.out = os.path.abspath(args.out)
    if args.child:
        return child_main(args)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; known: {names}")
    results = [run_workload(args, w, spec)
               for w in ([args.workload] if args.workload else names)]
    if args.workload is None:
        with open(os.path.join(args.out, "results.json"), "w") as f:
            json.dump({r["workload"]: r for r in results}, f, indent=1,
                      sort_keys=True)
        print(json.dumps({r["workload"]: r["line"] for r in results}))
    else:
        print(json.dumps(results[0]["line"]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

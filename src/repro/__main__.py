"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report [names...]`` — regenerate paper tables/figures (all by default;
  names like ``table4 roaming figure1``).
* ``run <workload>`` — run one registered workload locally and print its
  result and instruction count (``Fib``, ``NQ``, ``FFT``, ``TSP``).
* ``migrate <workload>`` — run it under SODEE with a top-frame migration
  and print the migration record and trace timeline.
* ``serve [--mix parallel] [--nodes 4] [--requests 32]`` — run the
  elastic cluster scheduler on a request mix and print the serving
  report (deterministic; ``--json`` for machine-readable output).
* ``disasm <file.mj> [Class.method]`` — compile a MiniLang file and print
  the (preprocessed) bytecode.
* ``workloads`` — list registered workloads with paper/sim parameters.
"""

from __future__ import annotations

import argparse
import sys

from repro.runtime import BACKENDS


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import ALL, generate
    names = args.names or None
    if names:
        unknown = [n for n in names if n not in ALL]
        if unknown:
            print(f"unknown experiments: {unknown}; "
                  f"available: {sorted(ALL)}", file=sys.stderr)
            return 2
    print(generate(names))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import WORKLOADS
    for name, w in WORKLOADS.items():
        print(f"{name:5s} paper n={w.paper_n:<4d} sim args={w.sim_args} "
              f"JDK={w.paper_jdk_seconds}s trigger={w.trigger_method}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workloads import WORKLOADS, compiled
    from repro.vm import Machine
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    machine = Machine(compiled(w.name, args.build))
    result = machine.call(w.main[0], w.main[1], list(w.sim_args))
    print(f"{w.name}{w.sim_args} = {result}  "
          f"[{machine.instr_count} instructions, build={args.build}]")
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.cluster import gige_cluster
    from repro.migration import SODEngine
    from repro.migration.tracing import Tracer, format_timeline
    from repro.workloads import WORKLOADS, compiled, expected_result
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    engine = SODEngine(gige_cluster(2), compiled(w.name, "faulting"))
    tracer = Tracer().attach(engine)
    home, thread = engine.start(w.main[0], w.main[1], list(w.sim_args))
    if engine.run(home, thread, stop=w.trigger()) == "finished":
        print("trigger never fired; nothing migrated", file=sys.stderr)
        return 1
    result, rec = engine.run_segment_remote(home, thread, "node1")
    ok = result == expected_result(w.name)
    print(f"result={result} (correct={ok})")
    print(f"latency={rec.latency * 1e3:.2f} ms  "
          f"capture={rec.capture_time * 1e3:.2f}  "
          f"transfer={rec.transfer_time * 1e3:.2f}  "
          f"restore={rec.restore_time * 1e3:.2f}")
    print(format_timeline(tracer))
    return 0 if ok else 1


def _serve_flag(key: str) -> str:
    """The CLI spelling of a :data:`~repro.serve.scheduler.SERVE_KEYS`
    key."""
    short = {"n_nodes": "nodes", "n_requests": "requests",
             "chaos_seed": "chaos"}.get(key, key)
    return "--" + short.replace("_", "-")


def _serve_real_backend(args: argparse.Namespace, cfg: dict) -> int:
    """``serve --backend real``: multiprocess wall-clock mode.

    Every virtual-only key of the described run that was moved off its
    default is refused up front — those are defined in terms of the
    modeled clock or cluster.  The virtual backend remains the
    correctness oracle: ``--crosscheck`` re-serves the same described
    stream there and compares request by request.
    """
    import json as _json

    from repro.runtime.real import available_cores, serve_real
    from repro.serve.scheduler import SERVE_KEYS

    refused = [_serve_flag(k) for k, (default, virtual_only, _m)
               in SERVE_KEYS.items()
               if virtual_only and cfg.get(k, default) != default]
    if args.record:
        refused.append("--record")  # (no event trace in wall-clock mode)
    if refused:
        print(f"--backend real is wall-clock mode; {', '.join(refused)} "
              f"only make sense in virtual time (run them on the "
              f"virtual oracle)", file=sys.stderr)
        return 2
    rep = serve_real(procs=args.procs or min(4, available_cores()),
                     **{k: v for k, v in cfg.items()
                        if not SERVE_KEYS[k][1]})
    check = None
    if args.crosscheck:
        from repro.runtime.crosscheck import (CrosscheckError,
                                              crosscheck_real_vs_virtual)
        try:
            check = crosscheck_real_vs_virtual(rep)
        except CrosscheckError as e:
            print(f"CROSSCHECK FAILED:\n{e}", file=sys.stderr)
            return 1
    ok = rep["correct"] == rep["served"] and rep["unserved"] == 0 \
        and rep["failed"] == 0
    if args.json:
        out = dict(rep)
        if check is not None:
            out["crosscheck"] = check
        print(_json.dumps(out, indent=2))
        return 0 if ok else 1
    s = rep["sched"]
    w = rep["wall"]
    print(f"backend=real mix={rep['mix']} procs={rep['procs']} "
          f"served={rep['served']}/{rep['submitted']} "
          f"correct={rep['correct']}")
    print(f"wall={w['seconds']:.3f}s  throughput={w['throughput_rps']:.1f} "
          f"req/s  usable cores={w['cores']}")
    print(f"steals={s['steals']} migrations={s['migrations']} "
          f"(image {s['image_bytes']} B, class tokens {s['token_bytes']} B)")
    if s["crashes"]:
        print(f"chaos: {s['crashes']} worker crashes, "
              f"{s['retries']} retries")
    for tname, block in rep.get("tenants", {}).items():
        print(f"  tenant {tname}: served={block['served']} "
              f"correct={block['correct']}")
    if check is not None:
        print(f"crosscheck vs virtual oracle: {check['compared']} "
              f"compared, {check['virtual_shed']} virtual-shed — OK")
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.chaos import (FaultPlan, read_trace, replay_trace,
                             run_recorded, trace_divergence, traces_equal,
                             write_trace)
    from repro.errors import ClusterError
    from repro.serve.scheduler import SERVE_KEYS
    from repro.workloads import MIXES
    if args.replay:
        recorded = read_trace(args.replay)
        try:
            new, rep = replay_trace(recorded)
        except (ValueError, ClusterError) as e:
            print(f"serve: replay of {args.replay}: {e}", file=sys.stderr)
            return 2
        if args.record:
            write_trace(args.record, new)
        if traces_equal(recorded, new):
            print(f"replay of {args.replay}: byte-identical "
                  f"({len(new['events'])} events, "
                  f"served {rep.served}/{rep.submitted}, "
                  f"correct {rep.correct})")
            return 0
        print(f"replay of {args.replay}: DIVERGED")
        print(f"  {trace_divergence(recorded, new)}")
        return 1
    if args.mix not in MIXES:
        print(f"unknown mix {args.mix!r}; known: {sorted(MIXES)}",
              file=sys.stderr)
        return 2
    # The described run: every SERVE_KEYS key the CLI spells, in the
    # JSON form a trace's config block holds.
    cfg = {k: getattr(args, k) for k in SERVE_KEYS if hasattr(args, k)}
    if cfg["tenants"]:
        from repro.serve import parse_tenants
        try:
            cfg["tenants"] = parse_tenants(cfg["tenants"]).to_dict()
        except ClusterError as e:
            print(f"serve: {e}", file=sys.stderr)
            return 2
    if cfg["admission"] == "none":
        cfg["admission"] = None
    if args.backend == "real":
        return _serve_real_backend(args, cfg)
    try:
        trace, rep = run_recorded(cfg)
    except ValueError as e:
        print(f"serve: {e}", file=sys.stderr)
        return 2
    if args.chaos_seed is not None:
        for ev in FaultPlan.from_dict(trace["config"]["fault_plan"]):
            print(f"fault @ {ev.at:.6f}s: {ev.label()}")
    if args.record:
        write_trace(args.record, trace)
        print(f"recorded {len(trace['events'])} events -> {args.record}")
    # Under injected faults a request may legitimately fail (bounded
    # retries exhausted); what must never happen is a wrong answer or
    # a vanished request.
    ok = (rep.correct == rep.served and rep.unserved == 0
          and (args.chaos_seed is not None or rep.failed == 0))
    if args.json:
        print(_json.dumps(rep.to_dict(), indent=2))
        return 0 if ok else 1
    print(f"mix={rep.mix} nodes={rep.n_nodes} "
          f"served={rep.served}/{rep.submitted} correct={rep.correct}")
    print(f"makespan={rep.makespan:.4f}s  "
          f"throughput={rep.throughput:.1f} req/s  "
          f"latency p50={rep.latency_p50 * 1e3:.1f}ms "
          f"p95={rep.latency_p95 * 1e3:.1f}ms")
    s = rep.stats
    print(f"quanta={s['quanta']} handoffs={s['handoffs']} "
          f"sod_offloads={s['sod_offloads']} "
          f"(batched {s['batched_threads']}, "
          f"chain hops {s['seg_rehops']}) "
          f"completions={s['completions']}")
    print(f"transfer cache: {s['bytes_saved']} B kept off the wire, "
          f"{s['reval_hits']} object revalidation hits; "
          f"max quantum overshoot {s['max_quantum_overshoot']} instrs")
    print(f"static isolation: {s['isolated']} requests in per-request "
          f"namespaces; admission shed {s['shed']}")
    if "adaptive_threshold" in s:
        print(f"adaptive admission: threshold={s['adaptive_threshold']:.2f} "
              f"({s['adaptive_down']} down / {s['adaptive_up']} up "
              f"adjustments, {s['fair_sheds']} fair-share sheds)")
    for tname, block in rep.tenants.items():
        tl = block["latency_s"]
        print(f"  tenant {tname}: admitted={block['admitted']}/"
              f"{block['submitted']} shed={block['shed']} "
              f"done={block['done']} failed={block['failed']} "
              f"quanta={block['quanta']} "
              f"p50={tl['p50'] * 1e3:.1f}ms p95={tl['p95'] * 1e3:.1f}ms")
    print(f"tier-2 jit: {s['tier2_compiles']} compiles, "
          f"{s['tier2_deopts']} deopts, "
          f"{s['tier2_guard_bails']} guard bails, "
          f"{s['jit_compile_errors']} compile errors")
    if (args.chaos_seed is not None or s["crashes"] or s["link_failures"]
            or s["straggles"]):
        print(f"chaos: {s['crashes']} crashes, {s['link_failures']} link "
              f"faults, {s['straggles']} stragglers; {s['retries']} "
              f"retries, {s['seg_recoveries']} segment recoveries "
              f"({s['home_requeues']} from home state), "
              f"{s['cancelled_segments']} cancelled, "
              f"{s['delivery_drops']} delivery drops, "
              f"{s['dropped_messages']} messages lost, "
              f"{rep.failed} requests failed")
    per_dec = s["decision_ops"] / s["decisions"] if s["decisions"] else 0.0
    print(f"decisions={s['decisions']} "
          f"(index ops/decision={per_dec:.1f}) "
          f"gossip_rounds={s['gossip_rounds']} "
          f"victim_vetoes={s['victim_vetoes']}")
    if rep.n_nodes <= 16:
        for node, row in rep.per_node.items():
            print(f"  {node}: served={row['served']:<3d} "
                  f"busy={row['busy_s']:.4f}s w={row['cpu_weight']:g}")
    else:
        served = [row["served"] for row in rep.per_node.values()]
        print(f"  per-node served: min={min(served)} max={max(served)} "
              f"(use --json for the full breakdown)")
    return 0 if ok else 1


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.bytecode import disassemble
    from repro.lang import compile_source
    from repro.preprocess import preprocess_program
    with open(args.path) as fh:
        classes = preprocess_program(compile_source(fh.read()), args.build)
    target = args.target
    for cname, cf in sorted(classes.items()):
        if not cf.methods:
            continue
        for mname, code in cf.methods.items():
            qual = f"{cname}.{mname}"
            if target and target not in (cname, qual):
                continue
            print(disassemble(code))
            print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="regenerate paper tables/figures")
    p.add_argument("names", nargs="*")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("workloads", help="list registered workloads")
    p.set_defaults(fn=_cmd_workloads)

    p = sub.add_parser("run", help="run a workload locally")
    p.add_argument("workload")
    p.add_argument("--build", default="original",
                   choices=["original", "flattened", "faulting", "checking"])
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("migrate", help="run a workload with SOD migration")
    p.add_argument("workload")
    p.set_defaults(fn=_cmd_migrate)

    p = sub.add_parser("serve", help="run the elastic cluster scheduler")
    p.add_argument("--backend", default="virtual",
                   choices=BACKENDS,
                   help="execution backend: virtual = the deterministic "
                        "discrete-event kernel (the correctness oracle "
                        "and CI merge gate); real = wall-clock mode, "
                        "each node an OS process and every migration "
                        "actual bytes over pipes — results are held to "
                        "the virtual oracle (see --crosscheck), timings "
                        "are hardware facts")
    p.add_argument("--procs", type=int, default=None,
                   help="worker-process count for --backend real "
                        "(default min(4, usable cores); the virtual "
                        "backend sizes with --nodes as always)")
    p.add_argument("--crosscheck", action="store_true",
                   help="after a --backend real run, re-serve the same "
                        "seed on the virtual oracle and compare "
                        "request-by-request (results, correctness, "
                        "tenant attribution; timings excluded)")
    # One flag per SERVE_KEYS key the CLI spells (fault_plan and
    # max_retries have no flag): dest, default and help come from the
    # table, the type from the default unless given.
    from repro.serve.scheduler import PLACEMENTS, SERVE_KEYS

    def knob(key: str, **kw) -> None:
        default, _virtual_only, meaning = SERVE_KEYS[key]
        if "choices" not in kw:
            kw.setdefault("type", type(default))
        kw.setdefault("help", meaning)
        p.add_argument(_serve_flag(key), dest=key, default=default, **kw)

    for key in ("mix", "n_nodes", "n_requests", "seed", "quantum",
                "interarrival", "rack_size", "max_seg_hops"):
        knob(key)
    knob("placement", choices=list(PLACEMENTS))
    knob("offload", choices=["queue-depth", "none"])
    knob("isolation", choices=["auto", "all", "off"])
    knob("admission", choices=["none", "static", "adaptive"])
    for key in ("staleness", "shed_at", "arrival_rate", "slo",
                "chaos_horizon"):
        knob(key, type=float)
    knob("chaos_seed", type=int, metavar="SEED")
    knob("tenants", type=str, metavar="SPEC",
         help="multi-tenant QoS: comma-separated name[:key=val]* "
              "entries with keys w/weight (fair-queueing share), "
              "p/priority (0 = shed last), r/rate (arrival-rate "
              "factor) — e.g. "
              "'gold:w=3,free:w=1:p=2:r=10'; requires --arrival-rate")
    p.add_argument("--record", metavar="PATH", default=None,
                   help="record the run's event trace (config, faults, "
                        "scheduling decisions, completions) to PATH")
    p.add_argument("--replay", metavar="PATH", default=None,
                   help="re-execute a recorded trace from its embedded "
                        "config and verify byte-identical events "
                        "(other serve flags are ignored)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("disasm", help="compile + disassemble MiniLang")
    p.add_argument("path")
    p.add_argument("target", nargs="?")
    p.add_argument("--build", default="faulting",
                   choices=["original", "flattened", "faulting", "checking"])
    p.set_defaults(fn=_cmd_disasm)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

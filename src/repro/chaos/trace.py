"""Deterministic record/replay of serving runs.

A *trace* is a JSON document capturing one serving run: the fully
resolved configuration (fault plan embedded), the event stream the
scheduler emitted (arrivals, scheduling decisions, faults, recoveries,
completions — each stamped with its virtual time), and a per-request
summary.  Because a serving run is a pure function of its
configuration — virtual clock, string-seeded RNGs, deterministic
tie-breaking, and faults injected as ordinary kernel events — *replay
is just re-execution*: run the embedded config again and the new trace
is byte-identical to the recorded one, faults, recoveries, timestamps
and all.  A divergence therefore pinpoints a nondeterminism bug (or a
code change), which is what makes crash-recovery debugging tractable:
any disaster the fuzzer finds can be re-run under a debugger as many
times as it takes.

The comparison is strict: ``traces_equal`` canonicalizes both
documents with sorted keys and compares the serialized bytes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.migration.tracing import Tracer
from repro.serve.scheduler import build_serving, resolve_config

#: trace document schema version (bump on incompatible change)
TRACE_VERSION = 1


def run_recorded(config: Optional[Dict[str, Any]] = None
                 ) -> Tuple[Dict[str, Any], Any]:
    """Execute one serving run under ``config`` (a partial
    :data:`~repro.serve.scheduler.SERVE_KEYS` description), recording
    its trace.

    Returns ``(trace, report)``: the JSON-ready trace document and the
    live :class:`~repro.serve.scheduler.ServeReport`."""
    cfg = resolve_config(config)
    sched, load = build_serving(**cfg)
    tracer = Tracer().attach(sched)
    rep = sched.serve(load)
    summary = [{
        "rid": r.rid,
        "program": r.spec.program if r.spec is not None else None,
        "state": r.state,
        "tenant": r.tenant,
        "result": repr(r.result),
        "error": r.error,
        "arrival": r.arrival,
        "finished_at": r.finished_at,
        "retries": r.retries,
        "sod_offloads": r.sod_offloads,
    } for r in sorted(sched.requests, key=lambda r: r.rid)]
    trace = {
        "version": TRACE_VERSION,
        "config": cfg,
        "events": tracer.events,
        "summary": {"requests": summary, "report": rep.to_dict()},
    }
    return trace, rep


def replay_trace(trace: Dict[str, Any]) -> Tuple[Dict[str, Any], Any]:
    """Re-execute a recorded run from its embedded config.  The
    returned trace must be byte-identical to the recorded one."""
    if trace.get("version") != TRACE_VERSION:
        raise ValueError(
            f"trace version {trace.get('version')!r} != {TRACE_VERSION}")
    return run_recorded(trace["config"])


def canonical(trace: Dict[str, Any]) -> str:
    """The byte-comparison form: serialized with sorted keys."""
    return json.dumps(trace, sort_keys=True)


def traces_equal(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return canonical(a) == canonical(b)


def trace_divergence(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """A human-oriented pointer at the first difference (None if
    equal) — enough to start debugging a replay failure: the first
    differing event, else the first differing path outside the event
    stream (``config.<key>``, ``summary.requests[i].<field>``,
    ``summary.report.<key>``...)."""
    if traces_equal(a, b):
        return None
    ea, eb = a.get("events", []), b.get("events", [])
    for i, (x, y) in enumerate(zip(ea, eb)):
        if x != y:
            return (f"event {i} differs: recorded {json.dumps(x, sort_keys=True)}"
                    f" vs replayed {json.dumps(y, sort_keys=True)}")
    if len(ea) != len(eb):
        return f"event count differs: {len(ea)} recorded vs {len(eb)} replayed"
    rest = [{k: v for k, v in t.items() if k != "events"} for t in (a, b)]
    path, x, y = _first_difference(*rest, "")
    return (f"{path} differs: recorded {json.dumps(x, sort_keys=True)}"
            f" vs replayed {json.dumps(y, sort_keys=True)}")


def _first_difference(x: Any, y: Any,
                      path: str) -> Optional[Tuple[str, Any, Any]]:
    """``(path, x', y')`` at the first leaf where the canonical forms of
    ``x`` and ``y`` differ (dict keys in sorted order; a missing key
    reads as None; lists of unequal length differ whole), or None."""
    if canonical(x) == canonical(y):
        return None
    if isinstance(x, dict) and isinstance(y, dict):
        kids = [(f"{path}.{k}" if path else k, x.get(k), y.get(k))
                for k in sorted(x.keys() | y.keys())]
    elif (isinstance(x, (list, tuple)) and isinstance(y, (list, tuple))
            and len(x) == len(y)):
        kids = [(f"{path}[{i}]", u, v) for i, (u, v) in enumerate(zip(x, y))]
    else:
        kids = []
    return next(filter(None, (_first_difference(u, v, p)
                              for p, u, v in kids)), (path, x, y))


def write_trace(path: str, trace: Dict[str, Any]) -> None:
    with open(path, "w") as f:
        json.dump(trace, f, sort_keys=True, indent=1)
        f.write("\n")


def read_trace(path: str) -> Dict[str, Any]:
    with open(path) as f:
        return json.load(f)

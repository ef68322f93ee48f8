"""Cross-checker: hold a real-backend run to the virtual-time oracle.

The request stream is a pure function of (mix, n_requests, seed,
tenants) — ``LoadGenerator.schedule()`` produces the identical row
list in both backends — and every request is a pure function of its
spec.  So a wall-clock run and a same-seed virtual run must agree
*request by request* on everything except timing and placement:

* the result value (or failure) of request *i*,
* the correctness flag (result == the standalone-machine oracle),
* the tenant the request was attributed to.

Virtual-only outcomes are mapped, not ignored: a request the virtual
scheduler *shed* under overload has no real-backend counterpart (the
real backend serves the whole stream — wall-clock mode has no modeled
admission horizon), so shed rows only require that the real backend
*served* them correctly; a virtual ``failed`` row must fail on the
real backend too (guest exceptions are deterministic).

What is deliberately **excluded**: latencies, completion order, node
assignment, migration counts — those are the quantities the two
backends are *supposed* to disagree on.  The virtual backend stays
the merge gate; this checker is what lets the real backend claim its
speedups are of the same computation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["crosscheck_real_vs_virtual", "virtual_request_rows",
           "CrosscheckError"]


class CrosscheckError(AssertionError):
    """A real-backend run diverged from the virtual-time oracle."""


def virtual_request_rows(mix: str = "paper", **serve_kw: Any
                         ) -> List[Dict[str, Any]]:
    """Run the virtual oracle (a :func:`~repro.serve.scheduler.
    build_serving` description) and return its per-request rows in
    submission order (``sched.requests`` is appended to in ``submit``
    order, which is ``schedule()`` order — the same order the real
    backend numbers its rids in)."""
    from repro.serve.scheduler import build_serving

    sched, load = build_serving(mix=mix, **serve_kw)
    sched.serve(load)
    rows = []
    # ``sched.requests`` also holds offload *segments* (interleaved
    # rids); position among the kind=="request" entries — submission
    # order — is what aligns with the real backend's rid numbering.
    for r in (r for r in sched.requests if r.kind == "request"):
        rows.append({
            "rid": r.rid,
            "program": r.spec.program,
            "args": list(r.spec.args),
            "tenant": r.tenant,
            "state": r.state,
            "result": r.result,
        })
    return rows


def crosscheck_real_vs_virtual(real_report: Dict[str, Any],
                               virtual_rows: Optional[List[Dict[str, Any]]]
                               = None,
                               **virtual_kw: Any) -> Dict[str, Any]:
    """Compare a :func:`repro.runtime.real.serve_real` report against
    the same-seed virtual run, request by request.

    Either pass precomputed ``virtual_rows`` or let this run the
    oracle on the described run the real report carries (its
    ``config`` block; ``virtual_kw`` adds oracle-side knobs).  Returns
    a summary dict on success; raises :class:`CrosscheckError` listing
    every divergent request on failure.
    """
    from repro.runtime.real import matches
    from repro.workloads.mixes import expected_request_result, RequestSpec

    if virtual_rows is None:
        virtual_rows = virtual_request_rows(
            **{**real_report["config"], **virtual_kw})

    real_rows = {r["rid"]: r for r in real_report["requests"]}
    problems: List[str] = []
    compared = 0
    shed = 0
    for i, v in enumerate(virtual_rows):
        r = real_rows.get(i)
        if r is None:
            problems.append(f"req {i}: missing from real run")
            continue
        if (r["program"], tuple(r["args"])) != (v["program"],
                                                tuple(v["args"])):
            problems.append(
                f"req {i}: stream diverged — real {r['program']}"
                f"{tuple(r['args'])} vs virtual {v['program']}"
                f"{tuple(v['args'])} (seeding bug)")
            continue
        if r["tenant"] != v["tenant"]:
            problems.append(
                f"req {i}: tenant attribution {r['tenant']!r} vs "
                f"virtual {v['tenant']!r}")
        if v["state"] == "shed":
            # No modeled admission horizon in wall-clock mode: the
            # real backend must have served it, and correctly.
            shed += 1
            if r["state"] != "done" or not r["correct"]:
                problems.append(
                    f"req {i}: virtual shed it, real must still serve "
                    f"it correctly (got state={r['state']!r})")
            continue
        if v["state"] == "failed":
            if r["state"] != "failed":
                problems.append(
                    f"req {i}: deterministic guest failure on virtual "
                    f"but real state={r['state']!r}")
            compared += 1
            continue
        compared += 1
        if r["state"] != "done":
            problems.append(
                f"req {i}: virtual done, real state={r['state']!r} "
                f"(error={r.get('error')!r})")
            continue
        if not matches(r["result"], v["result"]):
            problems.append(
                f"req {i}: result {r['result']!r} vs virtual "
                f"{v['result']!r}")
        want = expected_request_result(
            RequestSpec(v["program"], tuple(v["args"])))
        if bool(r["correct"]) != matches(r["result"], want):
            problems.append(
                f"req {i}: correctness flag {r['correct']!r} "
                f"inconsistent with the oracle")
    if len(real_rows) > len(virtual_rows):
        extra = sorted(set(real_rows) - set(range(len(virtual_rows))))
        problems.append(f"real run has extra rids {extra}")
    if problems:
        raise CrosscheckError(
            f"real backend diverged from the virtual oracle on "
            f"{len(problems)} point(s):\n  " + "\n  ".join(problems))
    return {"requests": len(virtual_rows), "compared": compared,
            "virtual_shed": shed, "ok": True}

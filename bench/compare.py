#!/usr/bin/env python3
"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (parent commit), ``B`` the change; each is a
``results.json`` (all workloads) or one ``<workload>.json`` written by
``bench/run.py``.  One row per (metric, workload), every ratio printed
with its base, and a verdict:

* ``ok`` — B is no worse than A by more than the metric's bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the repetitions inside a run spread wider than the
  bound and the two runs' ranges overlap, so neither can be claimed;
* ``-`` — a per-layer metric: reported, never gated.

End-to-end bounds and directions come from BENCHMARK.json.  The
user-visible *virtual* metrics ride in its ``per_layer`` list (the
benchmark contract wants every end-to-end metric on every workload, and
these exist on some only), so their bounds live here.  They repeat
exactly for a seed: with equal seeds any difference is the change's.
Exit code 1 if any row regressed.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: metric -> ("rel", share of base) or ("abs", points) it may worsen by
VIRTUAL_BOUNDS = {
    "virt_goodput_rps": ("rel", 0.02),
    "virt_latency_p50_s": ("rel", 0.02),
    "virt_latency_p95_s": ("rel", 0.02),
    "virt_slo_miss_pct": ("abs", 0.5),
    "wire_bytes_per_op": ("rel", 0.02),
    "virt_migration_latency_ms": ("rel", 0.02),
    "virt_migration_overhead_ms": ("rel", 0.02),
    "paper_err_pct": ("abs", 0.5),
    "failed_ops_pct": ("abs", 0.0),
}


def load(path: str) -> Dict[str, dict]:
    with open(path) as f:
        doc = json.load(f)
    return {doc["workload"]: doc} if "workload" in doc else doc


def values(result: dict) -> Dict[str, Optional[float]]:
    out = dict(result["end_to_end"])
    out.update(result["virtual"])
    out.update(result.get("per_layer", {}))
    return out


def verdict(a: float, b: float, better: str, kind: str, bound: float,
            ra: Optional[dict], rb: Optional[dict]) -> Tuple[str, float]:
    """(verdict, worsening) — worsening is a share of the base for
    ``rel`` bounds and a difference for ``abs`` ones; positive = worse."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b - a)
    if kind == "rel":
        worse = worse / abs(a) if a else (0.0 if b == a else float("inf"))
    noisy = any(r and r.get("spread", 0.0) > bound for r in (ra, rb))
    if noisy and ra and rb:
        if better == "lower":
            b_all_better = rb["max"] <= ra["min"]
            b_all_worse = rb["min"] > ra["max"]
        else:
            b_all_better = rb["min"] >= ra["max"]
            b_all_worse = rb["max"] < ra["min"]
        if b_all_better:
            return "ok", worse
        if not (b_all_worse and worse > bound):
            return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rules = {m["name"]: (m["better"], "rel", m["bound"])
             for m in spec["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in spec["per_layer"]}
    for name, (kind, bound) in VIRTUAL_BOUNDS.items():
        rules[name] = (layer_better[name], kind, bound)

    regressed = 0
    print(f"{'workload':<16} {'metric':<42} {'base':>13} {'change':>13} "
          f"{'worse by':>10} {'bound':>8}  verdict")
    for workload in base:
        if workload not in change:
            print(f"{workload:<16} (missing from {argv[2]})")
            continue
        ra, rb = base[workload], change[workload]
        if ra["seed"] != rb["seed"]:
            print(f"{workload:<16} note: seeds differ ({ra['seed']} vs "
                  f"{rb['seed']}): virtual values are not the same streams")
        va, vb = values(ra), values(rb)
        for metric, a in va.items():
            b = vb.get(metric)
            if a is None or b is None:
                continue  # not measured on this workload
            if metric in rules:
                better, kind, bound = rules[metric]
                v, worse = verdict(a, b, better, kind, bound,
                                   ra["host_spread"].get(metric),
                                   rb["host_spread"].get(metric))
                regressed += v == "regressed"
                shown = (f"{100 * worse:+9.2f}%" if kind == "rel"
                         else f"{worse:+9.3f}p")
                limit = (f"{100 * bound:.0f}%" if kind == "rel"
                         else f"{bound:g}p")
            else:
                v, limit = "-", ""
                shown = f"{100 * (b - a) / abs(a):+9.2f}%" if a else "      n/a"
            print(f"{workload:<16} {metric:<42} {a:>13.6g} {b:>13.6g} "
                  f"{shown:>10} {limit:>8}  {v}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

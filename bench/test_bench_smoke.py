"""Tier-1 smoke test of the benchmark: ``--smoke --trace 1`` on all six
workloads must serve every operation correctly and print every metric
BENCHMARK.json declares, by name, with its unit."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_smoke_prints_every_declared_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke",
         "--trace", "1", "--seed", "7", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:]
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted(final) == sorted(workloads)

    declared = {m["name"]: m["unit"]
                for key in ("end_to_end", "per_layer") for m in spec[key]}
    assert all(NAME.match(n) for n in list(declared) + workloads)
    # the human-readable block of each workload names every metric + unit
    printed = {}
    for line in lines[:-1]:
        if line.startswith("== "):
            printed[line.split()[1]] = block = {}
        elif line.startswith("  ") and len(line.split()) >= 3:
            name, _value, unit = line.split()[:3]
            block[name] = unit
    for w in workloads:
        missing = {n: u for n, u in declared.items()
                   if printed[w].get(n) != u}
        assert not missing, (w, missing)
        # the machine-readable line carries exactly the per-layer set
        row = final[w]
        assert row["correct"] and row["failed"] == 0 and row["attempted"] > 0
        assert sorted(row["metrics"]) == sorted(
            m["name"] for m in spec["per_layer"])
        assert row["metrics"]["failed_ops_pct"]["value"] == 0
        assert os.path.exists(tmp_path / f"{w}.trace.jsonl")

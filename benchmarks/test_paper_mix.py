"""Bench: serving the full paper registry — the ``"paper"`` mix, FFT
and TSP in per-request namespaces beside reentrant Fib/NQ — replays
bit-identically."""

from __future__ import annotations

import json


def test_paper_mix_is_deterministic():
    from repro.serve import QueueDepthPolicy
    from tests.helpers import serve_mix

    def point():
        rep = serve_mix("paper", n_nodes=2, n_requests=10, seed=7,
                        offload=QueueDepthPolicy(max_seg_hops=2))
        return json.dumps(rep.to_dict(), sort_keys=True)

    assert point() == point()

"""Bench: the offload mix served through one front door with chained
segment hops replays bit-identically."""

from __future__ import annotations

import json


def test_migration_fastpath_is_deterministic():
    from repro.serve import QueueDepthPolicy
    from tests.helpers import serve_mix

    def point():
        rep = serve_mix("offload", n_nodes=4, n_requests=12, seed=11,
                        placement="front-door",
                        offload=QueueDepthPolicy(max_seg_hops=2))
        return json.dumps(rep.to_dict(), sort_keys=True)

    assert point() == point()

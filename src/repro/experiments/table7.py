"""Table VII — migration latency to an iPhone vs available bandwidth.

The photo-share scenario (section IV.D): the web server migrates its
photo-search frame to the iPhone over a rate-limited Wi-Fi link.  The
iPhone's JamVM has no VMTI, so capture pays an extra Java-serialization
step (to a portable format) and restore happens at Java level on the
slow device CPU — which is why capture/restore are flat across
bandwidths while both transfer components scale with the link.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster import phone_setup
from repro.experiments.common import Table
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.policies import on_method_entry
from repro.migration.segments import pin_methods
from repro.preprocess import preprocess_program
from repro.units import kb, to_ms
from repro.vm.costmodel import sodee_model
from repro.workloads import programs

#: paper: kbps -> (capture, state xfer, class xfer, restore, latency) ms
PAPER = {
    50: (14.05, 766.00, 908.33, 40.33, 1728.72),
    128: (13.16, 796.67, 398.67, 50.00, 1040.33),
    384: (14.37, 321.67, 407.33, 28.67, 772.04),
    764: (13.50, 280.00, 392.50, 30.50, 716.50),
}

BANDWIDTHS = (50, 128, 384, 764)
N_PHOTOS = 24


def migrate_once(bandwidth_kbps: float):
    """One photo-search migration to the phone; returns the record and
    the search result."""
    classes = preprocess_program(compile_source(programs.PHOTOSHARE),
                                 "faulting")
    cluster = phone_setup(bandwidth_kbps)
    phone = cluster.node("iphone")
    for i in range(N_PHOTOS):
        tag = "beach" if i % 6 == 0 else "home"
        cluster.fs.host_file(phone, f"/User/Media/DCIM/100APPLE/IMG_{i:04d}_{tag}.jpg",
                             kb(600))
    eng = SODEngine(cluster, classes, cost=sodee_model())
    server, t = eng.start("PhotoServer", "serve",
                          ["/User/Media/DCIM/100APPLE", "beach"],
                          at="server")
    # The serve frame holds the client socket: pinned at home (IV.D).
    pin_methods(t, ["PhotoServer.serve"])
    eng.run(server, t,
            stop=on_method_entry("PhotoServer", "searchPhotos"))
    result, rec = eng.run_segment_remote(server, t, "iphone")
    assert "beach" in result
    return rec, result


def run() -> Table:
    t = Table(
        title="Table VII — migration latency vs bandwidth (ms, paper vs repro)",
        header=("kbps", "capt(p)", "capt", "state(p)", "state",
                "class(p)", "class", "rest(p)", "rest",
                "latency(p)", "latency"),
    )
    for bw in BANDWIDTHS:
        p = PAPER[bw]
        rec, _res = migrate_once(bw)
        t.add(bw, p[0], to_ms(rec.capture_time),
              p[1], to_ms(rec.state_transfer_time),
              p[2], to_ms(rec.class_transfer_time),
              p[3], to_ms(rec.restore_time),
              p[4], to_ms(rec.latency))
    t.notes.append(
        "capture/restore are bandwidth-independent; transfers scale "
        "inversely with the link, as in the paper.")
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().format())

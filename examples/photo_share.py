#!/usr/bin/env python
"""The paper's section IV.D scenario: a web server shares photos that
live on an iPhone, *without installing any server software on the phone*.

The server's photo-search method is pushed to the device with SOD (the
frame holding the client socket is pinned at home); the found list comes
back as the method's return value.  The run sweeps the paper's Table VII
bandwidths.

Run:  python examples/photo_share.py
"""

from repro.cluster import phone_setup
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.policies import on_method_entry
from repro.migration.segments import pin_methods
from repro.preprocess import preprocess_program
from repro.units import kb, to_ms
from repro.vm.costmodel import sodee_model
from repro.workloads import programs

DCIM = "/User/Media/DCIM/100APPLE"


def serve_once(bandwidth_kbps: float) -> None:
    classes = preprocess_program(compile_source(programs.PHOTOSHARE),
                                 "faulting")
    cluster = phone_setup(bandwidth_kbps)
    phone = cluster.node("iphone")
    for i in range(18):
        tag = "beach" if i % 5 == 0 else "cat"
        cluster.fs.host_file(phone, f"{DCIM}/IMG_{i:04d}_{tag}.jpg", kb(600))

    engine = SODEngine(cluster, classes, cost=sodee_model())
    server = engine.host("server")
    thread = engine.spawn(server, "PhotoServer", "serve", [DCIM, "beach"])
    # The serving frame holds the browser connection: pinned (IV.D).
    pin_methods(thread, ["PhotoServer.serve"])

    engine.run(server, thread,
               stop=on_method_entry("PhotoServer", "searchPhotos"))
    listing, record = engine.run_segment_remote(server, thread, "iphone",
                                                nframes=1)
    photos = [p for p in listing.split(";") if p]
    print(f"{bandwidth_kbps:>5.0f} kbps | "
          f"capture {to_ms(record.capture_time):7.2f} ms | "
          f"state {to_ms(record.state_transfer_time):8.2f} ms | "
          f"class {to_ms(record.class_transfer_time):8.2f} ms | "
          f"restore {to_ms(record.restore_time):7.2f} ms | "
          f"latency {to_ms(record.latency):8.2f} ms | "
          f"{len(photos)} beach photos found")


def main() -> None:
    print("SOD photo sharing: server -> iPhone task push (Table VII sweep)")
    for bw in (50, 128, 384, 764):
        serve_once(bw)
    print("note: capture/restore stay flat; only the transfers scale "
          "with the link, as in the paper.")


if __name__ == "__main__":
    main()

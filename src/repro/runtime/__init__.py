"""The real-parallel execution backend and what it shares with the oracle.

``virtual`` — the discrete-event kernel under ``build_serving``:
deterministic, the correctness oracle and CI merge gate; it needs
nothing from this package.  ``real`` — :func:`repro.runtime.real.serve_real`:
multiprocess wall-clock mode, every cluster node an OS process, every
migration actual serialized bytes (:mod:`repro.runtime.wire`) over
pipes, cross-checked request-by-request against the oracle
(:mod:`repro.runtime.crosscheck`).  Its scheduling rules live in
:class:`repro.runtime.real.ControlPlane`, which does no I/O, so tests
drive it with scripted messages; ``serve_real`` is its thin driver.
"""

#: the valid ``serve --backend`` values
BACKENDS = ("virtual", "real")

__all__ = ["BACKENDS"]

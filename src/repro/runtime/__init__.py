"""The real-parallel execution backend and what it shares with the oracle.

``virtual`` — the discrete-event kernel under ``serve_mix``:
deterministic, the correctness oracle and CI merge gate; it needs
nothing from this package.  ``real`` — :func:`repro.runtime.real.serve_real`:
multiprocess wall-clock mode, every cluster node an OS process, every
migration actual serialized bytes (:mod:`repro.runtime.wire`) over
pipes, cross-checked request-by-request against the oracle
(:mod:`repro.runtime.crosscheck`).
"""

#: the valid ``serve --backend`` values
BACKENDS = ("virtual", "real")

__all__ = ["BACKENDS"]

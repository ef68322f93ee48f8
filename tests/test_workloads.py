"""Workload programs: correctness oracles and structure."""

import numpy as np
import pytest

from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.vm import Machine
from repro.workloads import (MIXES, SERVE_PROGRAMS, WORKLOADS, RequestSpec,
                             baseline_run, clock_units, compiled,
                             expected_request_result, expected_result,
                             instr_seconds_for, mixes, programs, registry,
                             serve_compiled)


def test_fib_value():
    assert expected_result("Fib") == 10946  # fib(21)


def test_nqueens_value():
    assert expected_result("NQ") == 40  # 7-queens solutions


def test_tsp_is_a_valid_tour_cost():
    best = expected_result("TSP")
    assert 0 < best < 999_999_999
    # Brute-force check at a tiny size using the same guest code paths.
    classes = compiled("TSP", "original")
    m = Machine(classes)
    small = m.call("TSP", "main", [5])
    assert 0 < small < 999_999_999


def test_fft_against_numpy():
    classes = compiled("FFT", "original")
    m = Machine(classes)
    m.call("FFT", "init", [16, 8])
    m.call("FFT", "compute", [])
    re = np.array(m.loader.load("FFT").statics["re"].data).reshape(16, 16)
    im = np.array(m.loader.load("FFT").statics["im"].data).reshape(16, 16)
    m2 = Machine(compiled("FFT", "original"))
    m2.call("FFT", "init", [16, 8])
    inp = (np.array(m2.loader.load("FFT").statics["re"].data)
           + 1j * np.array(m2.loader.load("FFT").statics["im"].data)
           ).reshape(16, 16)
    assert np.abs((re + 1j * im) - np.fft.fft2(inp)).max() < 1e-9


def test_fft_nominal_array_size():
    classes = compiled("FFT", "faulting")
    m = Machine(classes)
    m.call("FFT", "init", list(WORKLOADS["FFT"].sim_args))
    re = m.loader.load("FFT").statics["re"]
    im = m.loader.load("FFT").statics["im"]
    total = re.nominal_bytes() + im.nominal_bytes()
    assert total > 64 * 1024 * 1024  # the paper's F > 64M


def test_all_builds_agree_per_workload():
    for name, w in WORKLOADS.items():
        oracle = expected_result(name)
        for build in ("faulting", "checking"):
            m = Machine(compiled(name, build))
            got = m.call(w.main[0], w.main[1], list(w.sim_args))
            if isinstance(oracle, float):
                assert got == pytest.approx(oracle), (name, build)
            else:
                assert got == oracle, (name, build)


def test_triggers_fire_for_every_workload():
    for name, w in WORKLOADS.items():
        m = Machine(compiled(name, "faulting"))
        t = m.spawn(w.main[0], w.main[1], list(w.sim_args))
        status = m.run(t, stop=w.trigger())
        assert status == "stopped", name
        assert t.frames[-1].code.name == w.trigger_method[1], name


def test_clock_units_positive_and_build_dependent():
    orig = clock_units("Fib", "original")
    flat = clock_units("Fib", "faulting")
    assert flat > orig > 0


def test_instr_seconds_maps_to_target():
    isec = instr_seconds_for("Fib", "original", 12.10)
    assert isec * clock_units("Fib", "original") == pytest.approx(12.10)


def test_one_solo_run_per_program_and_build(monkeypatch):
    """``baseline_run(n)`` and ``clock_units(n, "original")`` read one
    memoised run: the four programs start four machines, and each run's
    (result, instructions) equals a fresh default-cost machine's.  Kills
    the mutant where ``clock_units`` starts its own calibration machine
    again beside ``baseline_run``'s (eight machines)."""
    started = []

    class Counted(Machine):
        def __init__(self, *args, **kwargs):
            started.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(registry, "Machine", Counted)
    registry.solo_run.cache_clear()
    for name in WORKLOADS:
        baseline_run(name)
        clock_units(name, "original")
    assert len(started) == len(WORKLOADS) == 4
    for name, w in WORKLOADS.items():
        m = Machine(compiled(name, "original"))
        result = m.call(w.main[0], w.main[1], list(w.sim_args))
        assert baseline_run(name) == (result, m.instr_count), name


class _Built(Exception):
    """Raised by the spy machine once it has seen the oracle's classes."""


def test_the_serving_oracle_is_independent_of_the_preprocessor(monkeypatch):
    """Every spec of every mix: the oracle's result (``original`` build)
    equals a legacy run of the served ``faulting`` build, and the oracle's
    machine is a legacy one over ``original`` classes only.  Kills the
    mutant where ``expected_request_result`` goes back to
    ``serve_compiled(spec.program)`` (the ``faulting`` classes): the
    spy sees a ``faulting`` class."""
    specs = {spec for mix in MIXES.values() for spec, _w in mix.choices}
    for spec in sorted(specs, key=RequestSpec.label):
        m = Machine(serve_compiled(spec.program), dispatch="legacy")
        served = m.call(spec.main[0], spec.main[1], list(spec.args))
        assert expected_request_result(spec) == served, spec.label()

    seen = []

    class Spy(Machine):
        def __init__(self, classes, **kwargs):
            seen.append((classes, kwargs))
            raise _Built

    monkeypatch.setattr(mixes, "Machine", Spy)
    for program in SERVE_PROGRAMS:
        with pytest.raises(_Built):
            expected_request_result.__wrapped__(RequestSpec(program, ()))
    assert len(seen) == len(SERVE_PROGRAMS)
    for classes, kwargs in seen:
        assert kwargs == {"dispatch": "legacy"}
        assert {cf.version for cf in classes.values()} == {"original"}


def test_textsearch_counts_hits():
    from repro.cluster import gige_cluster
    from repro.units import mb
    classes = preprocess_program(compile_source(programs.TEXTSEARCH),
                                 "original")
    cluster = gige_cluster(1)
    cluster.fs.host_file(cluster.node("node0"), "/t/a", mb(9),
                         plant=[(mb(8), "zebra")])
    cluster.fs.host_file(cluster.node("node0"), "/t/b", mb(9))
    m = Machine(classes, node=cluster.node("node0"), fs=cluster.fs)
    assert m.call("Search", "runMany", ["/t/", "zebra"]) == 1


def test_photoshare_lists_matching_photos():
    from repro.cluster import phone_setup
    from repro.units import kb
    classes = preprocess_program(compile_source(programs.PHOTOSHARE),
                                 "original")
    cluster = phone_setup()
    phone = cluster.node("iphone")
    cluster.fs.host_file(phone, "/pics/IMG_1_beach.jpg", kb(100))
    cluster.fs.host_file(phone, "/pics/IMG_2_home.jpg", kb(100))
    m = Machine(classes, node=phone, fs=cluster.fs)
    listing = m.call("PhotoServer", "serve", ["/pics/", "beach"])
    assert "beach" in listing and "home" not in listing


def test_microbench_methods_return_sane_values():
    classes = preprocess_program(compile_source(programs.MICROBENCH),
                                 "original")
    m = Machine(classes)
    assert m.call("Micro", "fieldRead", [10]) == 30
    assert m.call("Micro", "fieldWrite", [10]) == 9
    assert m.call("Micro", "staticRead", [10]) == 50
    assert m.call("Micro", "staticWrite", [10]) == 9
    assert m.call("Micro", "baseline", [10]) == 10


def test_geometry_displaces_deterministically():
    classes = preprocess_program(compile_source(programs.GEOMETRY),
                                 "original")
    a = Machine(classes).call("GeoMain", "main", [3])
    b = Machine(classes).call("GeoMain", "main", [3])
    assert a == b != 0

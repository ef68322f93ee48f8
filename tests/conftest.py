"""Shared fixtures: compiled mini-programs and ready-made engines."""

from __future__ import annotations

import pytest

from repro.cluster import gige_cluster
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.preprocess import preprocess_program
from repro.vm import Machine, jit

#: a small program exercising objects, statics, arrays, calls, try/catch
APP_SOURCE = """
class Counter { int hits; }
class App {
  static int base;
  static Counter c;
  static int work(int n) {
    App.base = 5;
    App.c = new Counter();
    int r = App.step(n);
    return r + App.c.hits + App.base;
  }
  static int step(int n) {
    int total = 0;
    for (int i = 0; i < n; i = i + 1) {
      App.c.hits = App.c.hits + 1;
      total = total + i * 2;
    }
    return total;
  }
  static int safe(int n) {
    int r = 0;
    try { Counter q = null; r = q.hits; }
    catch (NullPointerException e) { r = n; }
    return r;
  }
}
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: regenerates paper tables / runs every example "
                   "(seconds each); deselect with -m 'not slow'")


@pytest.fixture(autouse=True)
def jit_compile_failures(monkeypatch):
    """No test may leave a tier-2 compile error behind: anything but a
    refusal is a code-generator bug that ``compile_into`` survives by
    keeping the method on tier 1 (``Machine.jit_compile_errors``), so
    no result-based check can see it.  Yields the qualnames that
    failed; a test that injects a failure on purpose clears the list."""
    failed = []
    real = jit.compile_into

    def checked(machine, code, jm):
        before = machine.jit_compile_errors
        cf = real(machine, code, jm)
        if machine.jit_compile_errors != before:
            failed.append(code.qualname)
        return cf

    monkeypatch.setattr(jit, "compile_into", checked)
    yield failed
    assert not failed, f"tier-2 compile errors: {failed}"


@pytest.fixture(scope="session")
def app_classes_original():
    return preprocess_program(compile_source(APP_SOURCE), "original")


@pytest.fixture(scope="session")
def app_classes_faulting():
    return preprocess_program(compile_source(APP_SOURCE), "faulting")


@pytest.fixture(scope="session")
def app_classes_checking():
    return preprocess_program(compile_source(APP_SOURCE), "checking")


@pytest.fixture()
def app_machine(app_classes_original):
    return Machine(app_classes_original)


@pytest.fixture()
def sod_engine(app_classes_faulting):
    eng = SODEngine(gige_cluster(3), app_classes_faulting)
    return eng


def compile_and_run(source: str, cls: str, method: str, args=None,
                    build: str = "original"):
    """Compile, preprocess, run; returns (result, machine)."""
    classes = preprocess_program(compile_source(source), build)
    machine = Machine(classes)
    result = machine.call(cls, method, list(args or []))
    return result, machine

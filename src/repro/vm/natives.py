"""Native (host-implemented) methods.

Guest code calls natives via ``Namespace.name(args)`` syntax, compiled to
``NATIVE "Namespace.name" nargs``.  Natives receive the hosting
:class:`repro.vm.machine.Machine` and the evaluated argument list, charge
simulated time via ``machine.charge``, and return the value to push.

Built-in namespaces:

* ``Sys.*``  — console, math, string helpers, nominal-size tagging.
* ``FS.*``   — the simulated cluster file system (local + NFS paths).

The migration runtime registers two more namespaces per worker VM:
``ObjMan.*`` (object faulting, section III.C) and ``CapturedState.*``
(restoration handlers, section III.B.2).  Their default bindings here
raise, so using preprocessed code outside a migration context fails
loudly instead of silently.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Tuple, TYPE_CHECKING

from repro.errors import NativeError
from repro.vm.objects import VMArray, VMInstance
from repro.vm.values import RemoteRef, is_nullish

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import Machine

NativeFn = Callable[["Machine", List[Any]], Any]


class NativeRegistry:
    """Name -> implementation mapping for one VM."""

    def __init__(self) -> None:
        #: name -> implementation; tier 2 reads :attr:`pure_intact`
        #: instead of looking the pure math names up here
        self.fns: Dict[str, NativeFn] = {}
        #: does every :data:`PURE_MATH` name still map to
        #: :data:`PURE_NATIVES`' own wrapper?  While it does, tier 2
        #: calls their host functions in line
        self.pure_intact = False
        install_default_natives(self)

    def register(self, name: str, fn: NativeFn) -> None:
        """Bind ``Namespace.name`` to ``fn`` (replacing any previous)."""
        self.fns[name] = fn
        if name in PURE_MATH:  # not per ObjMan / CapturedState binding
            self.pure_intact = all(self.fns.get(n) is f
                                   for n, f in PURE_NATIVES.items())

    def lookup(self, name: str) -> NativeFn:
        fn = self.fns.get(name)
        if fn is None:
            raise NativeError(f"unknown native {name!r}")
        return fn


# -- Sys namespace -----------------------------------------------------------

def _sys_print(machine: "Machine", args: List[Any]) -> Any:
    machine.stdout.append(" ".join(_to_str(a) for a in args))
    return None


def _to_str(v: Any) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, VMInstance):
        return f"{v.class_name}#{v.oid}"
    if isinstance(v, VMArray):
        return f"{v.kind}[{len(v)}]#{v.oid}"
    if isinstance(v, RemoteRef):
        return f"remote#{v.home_oid}"
    return str(v)


def _num(machine: "Machine", args: List[Any], i: int = 0) -> Any:
    v = args[i]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise NativeError(f"expected number, got {type(v).__name__}")
    return v


#: the pure ``Sys`` math natives: name -> (host function, arity).  Each
#: reads only its number arguments, so tier 2 (:mod:`repro.vm.jit`)
#: calls the host function in line while the machine's registry still
#: maps every one of them to its wrapper below
#: (:attr:`NativeRegistry.pure_intact`)
PURE_MATH: Dict[str, Tuple[Callable[..., Any], int]] = {
    "Sys.floor": (math.floor, 1),
    "Sys.ceil": (math.ceil, 1),
    "Sys.sqrt": (math.sqrt, 1),
    "Sys.sin": (math.sin, 1),
    "Sys.cos": (math.cos, 1),
    "Sys.pi": (lambda: math.pi, 0),
    "Sys.abs": (abs, 1),
    "Sys.min": (min, 2),
    "Sys.max": (max, 2),
    "Sys.intOf": (int, 1),
    "Sys.floatOf": (float, 1),
}


def _pure_native(fn: Callable[..., Any], arity: int) -> NativeFn:
    """The registered form of a :data:`PURE_MATH` entry: ``_num``
    checks each argument, in order."""
    if arity == 0:
        return lambda m, a: fn()
    if arity == 1:
        return lambda m, a: fn(_num(m, a))
    return lambda m, a: fn(_num(m, a, 0), _num(m, a, 1))


#: one wrapper per :data:`PURE_MATH` name, shared by every registry
PURE_NATIVES: Dict[str, NativeFn] = {
    name: _pure_native(fn, arity) for name, (fn, arity) in PURE_MATH.items()}


def _sys_len(machine: "Machine", args: List[Any]) -> int:
    v = args[0]
    if isinstance(v, str):
        return len(v)
    v = _deref(machine, v)
    if isinstance(v, VMArray):
        return len(v)
    raise NativeError(f"Sys.len expects a string or array, got "
                      f"{type(v).__name__}")


def _deref(machine: "Machine", v: Any) -> Any:
    """Dereference a native argument: an unresolved remote reference (or
    a real null) raises the guest NPE that the injected fault handler
    for the native's group catches and resolves (paper section III.C)."""
    if is_nullish(v):
        raise machine.throw("NullPointerException", "native deref",
                            payload=v)
    return v


def install_default_natives(reg: NativeRegistry) -> None:
    """Install the ``Sys`` / ``FS`` namespaces plus failing stubs for the
    migration-owned namespaces."""

    # --- Sys ---
    reg.register("Sys.print", _sys_print)
    reg.register("Sys.str", lambda m, a: _to_str(a[0]))
    reg.register("Sys.len", _sys_len)
    reg.register("Sys.substr", lambda m, a: a[0][a[1]:a[2]])
    reg.register("Sys.charAt", lambda m, a: a[0][a[1]])
    reg.register("Sys.indexOf", lambda m, a: _indexof(m, a))
    reg.register("Sys.parseInt", lambda m, a: int(a[0]))
    for name, fn in PURE_NATIVES.items():
        reg.register(name, fn)
    reg.register("Sys.setNominal", _sys_set_nominal)
    reg.register("Sys.nominalSize", _sys_nominal_size)
    reg.register("Sys.sleep", _sys_sleep)
    reg.register("Sys.nodeName", lambda m, a: m.node.name if m.node else "local")
    reg.register("Sys.time", lambda m, a: m.clock)

    # --- FS ---
    reg.register("FS.list", _fs_list)
    reg.register("FS.size", _fs_size)
    reg.register("FS.read", _fs_read)
    reg.register("FS.scan", _fs_scan)
    reg.register("FS.exists", _fs_exists)

    # --- migration namespaces (bound by the migration runtime) ---
    def _unbound(name: str) -> NativeFn:
        def fn(machine: "Machine", args: List[Any]) -> Any:
            raise NativeError(
                f"native {name} called with no migration runtime attached")
        return fn

    for name in ("ObjMan.resolve", "ObjMan.bring", "ObjMan.check",
                 "CapturedState.read", "CapturedState.pc",
                 "Mig.requestMigration", "Mig.here"):
        reg.register(name, _unbound(name))


def _indexof(machine: "Machine", args: List[Any]) -> int:
    hay, needle = args[0], args[1]
    machine.charge(len(hay) * machine.cost.search_spb)
    return hay.find(needle)


def _sys_set_nominal(machine: "Machine", args: List[Any]) -> Any:
    arr = _deref(machine, args[0])
    if not isinstance(arr, VMArray):
        raise NativeError("Sys.setNominal expects an array")
    machine.heap.allocated_bytes -= arr.nominal_bytes()
    arr.nominal_elem_bytes = int(args[1])
    machine.heap.allocated_bytes += arr.nominal_bytes()
    return None


def _sys_nominal_size(machine: "Machine", args: List[Any]) -> int:
    obj = args[0]
    if obj is None:
        return 0
    if isinstance(obj, RemoteRef):
        obj = _deref(machine, obj)
    if not isinstance(obj, (VMInstance, VMArray)):
        raise NativeError("Sys.nominalSize expects a heap object")
    return obj.nominal_bytes()


def _sys_sleep(machine: "Machine", args: List[Any]) -> Any:
    seconds = args[0]
    if seconds < 0:
        raise NativeError("negative sleep")
    machine.charge_raw(float(seconds))
    return None


# -- FS namespace --------------------------------------------------------------

def _need_fs(machine: "Machine"):
    if machine.fs is None or machine.node is None:
        raise NativeError("no file system attached to this VM")
    return machine.fs


def _fs_list(machine: "Machine", args: List[Any]) -> VMArray:
    fs = _need_fs(machine)
    paths = fs.listdir(args[0])
    arr = machine.heap.new_array("str", len(paths), nominal_elem_bytes=64)
    arr.data[:] = paths
    return arr


def _fs_size(machine: "Machine", args: List[Any]) -> int:
    fs = _need_fs(machine)
    return fs.stat(args[0]).size


def _fs_exists(machine: "Machine", args: List[Any]) -> bool:
    fs = _need_fs(machine)
    return fs.exists(args[0])


def _fs_read(machine: "Machine", args: List[Any]) -> str:
    """Read a window of real (procedurally generated) content."""
    fs = _need_fs(machine)
    path, offset, length = args[0], args[1], args[2]
    content, seconds = fs.read(machine.node.name, path, offset, length)
    machine.charge_raw(machine.cost.io_time(seconds, len(content)))
    return content


def _fs_scan(machine: "Machine", args: List[Any]) -> int:
    """Search ``needle`` in a window of a (possibly huge) file without
    materializing the content: charges read + scan cost in full and
    answers from plant metadata.  Returns absolute offset or -1.

    Consistency with ``FS.read`` + ``Sys.indexOf`` on real content is
    covered by property tests.
    """
    fs = _need_fs(machine)
    path, offset, length, needle = args[0], args[1], args[2], args[3]
    f = fs.stat(path)
    length = min(length, f.size - offset)
    machine.charge_raw(machine.cost.io_time(
        fs.read_cost(machine.node.name, path, offset, length), length))
    machine.charge(length * machine.cost.search_spb)
    for p_off, p_text in f.plant:
        idx = p_text.find(needle)
        if idx >= 0:
            pos = p_off + idx
            if offset <= pos and pos + len(needle) <= offset + length:
                return pos
    return -1

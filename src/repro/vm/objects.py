"""Runtime classes, instances and arrays.

A :class:`VMClass` is a loaded, linked class: its :class:`ClassFile` plus
resolved superclass, the full instance-field list, and static storage.
Instances and arrays carry a heap object id (``oid``) — the identity used
by the object manager to fetch/write-back objects across nodes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bytecode.code import ClassFile, CodeObject, FieldDecl
from repro.errors import LinkError

_DEFAULTS = {"int": 0, "float": 0.0, "bool": False, "str": ""}

#: serialized bytes charged per object header / per reference
OBJECT_HEADER_BYTES = 16
REF_BYTES = 8


def default_value(type_name: str) -> Any:
    """The default (zero) value for a declared type."""
    return _DEFAULTS.get(type_name)  # refs/arrays default to None


class VMClass:
    """A linked runtime class.

    ``namespace`` is the tag of the class-loader namespace that linked
    it (``None`` for the root loader): static cells live per linked
    class, so the tag identifies which context's cells these are —
    write barriers and write-back messages carry it so a multi-tenant
    worker attributes static writes to the right namespace.
    """

    def __init__(self, cf: ClassFile, superclass: Optional["VMClass"],
                 namespace: Optional[str] = None):
        self.cf = cf
        self.superclass = superclass
        self.namespace = namespace
        #: all instance fields, superclass-first
        self.all_fields: List[FieldDecl] = []
        if superclass is not None:
            self.all_fields.extend(superclass.all_fields)
        self.all_fields.extend(cf.instance_fields())
        #: static storage (this class's own statics only)
        self.statics: Dict[str, Any] = {
            f.name: default_value(f.type_name) for f in cf.static_fields()
        }

    @property
    def name(self) -> str:
        return self.cf.name

    def find_method(self, name: str) -> Optional[CodeObject]:
        """Virtual lookup along the superclass chain."""
        cls: Optional[VMClass] = self
        while cls is not None:
            m = cls.cf.methods.get(name)
            if m is not None:
                return m
            cls = cls.superclass
        return None

    def find_static_home(self, field: str) -> "VMClass":
        """The class in the chain that declares static ``field``."""
        cls: Optional[VMClass] = self
        while cls is not None:
            if field in cls.statics:
                return cls
            cls = cls.superclass
        raise LinkError(f"no static field {self.name}.{field}")

    def is_subclass_of(self, name: str) -> bool:
        """True if this class or any ancestor is called ``name``."""
        cls: Optional[VMClass] = self
        while cls is not None:
            if cls.name == name:
                return True
            cls = cls.superclass
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<VMClass {self.name}>"


class VMInstance:
    """A heap-allocated object."""

    __slots__ = ("vmclass", "fields", "oid", "host_payload")

    def __init__(self, vmclass: VMClass, oid: int):
        self.vmclass = vmclass
        self.oid = oid
        self.fields: Dict[str, Any] = {
            f.name: default_value(f.type_name) for f in vmclass.all_fields
        }
        #: host-side payload attached to guest exceptions (provenance etc.)
        self.host_payload: Any = None

    @property
    def class_name(self) -> str:
        return self.vmclass.name

    def nominal_bytes(self) -> int:
        """Serialized size of this object (shallow: refs count 8 bytes)."""
        total = OBJECT_HEADER_BYTES
        for f in self.vmclass.all_fields:
            v = self.fields.get(f.name)
            total += _value_bytes(v, f.nominal_bytes)
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.class_name}#{self.oid}>"


class VMArray:
    """A heap-allocated array.

    ``nominal_elem_bytes`` drives cost accounting: workloads can model a
    "64 MB static array" without storing 64 MB (see DESIGN.md), via the
    ``Sys.setNominal`` native.
    """

    __slots__ = ("kind", "data", "oid", "nominal_elem_bytes")

    def __init__(self, kind: str, length: int, oid: int,
                 nominal_elem_bytes: int = 8):
        self.kind = kind
        self.oid = oid
        self.nominal_elem_bytes = nominal_elem_bytes
        fill: Any = default_value(kind)
        self.data: List[Any] = [fill] * length

    def __len__(self) -> int:
        return len(self.data)

    def nominal_bytes(self) -> int:
        """Serialized size of the array."""
        return OBJECT_HEADER_BYTES + len(self.data) * self.nominal_elem_bytes

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.kind}[{len(self.data)}]#{self.oid}>"


def _value_bytes(v: Any, declared: int) -> int:
    """Serialized size of one field value."""
    if isinstance(v, str):
        return 4 + len(v)
    if isinstance(v, (VMInstance, VMArray)):
        return REF_BYTES
    return declared

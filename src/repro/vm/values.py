"""Guest value model.

Guest values are host values where possible (``int``, ``float``, ``bool``,
``str``, ``None`` for null) plus heap references
(:class:`repro.vm.objects.VMInstance` / :class:`~repro.vm.objects.VMArray`)
and the migration sentinel :class:`RemoteRef`.

:class:`RemoteRef` is the key piece of the paper's *object faulting*
design (section III.C): after a stack segment is restored at the
destination, every object reference in it "is null".  We realize that
null as a provenance-carrying sentinel — any use raises a guest
``NullPointerException`` exactly like a real null, but the exception can
tell the injected object-fault handler *which home object* to fetch and
*where* to patch the reference.  A genuine application null (``None``)
raises a plain ``NullPointerException`` that propagates to application
handlers, as in the paper.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

#: location descriptor kinds for RemoteRef provenance
LOC_LOCAL = "local"      # (LOC_LOCAL, frame, slot)
LOC_FIELD = "field"      # (LOC_FIELD, instance, field_name)
LOC_STATIC = "static"    # (LOC_STATIC, class_name, field_name)
LOC_ELEM = "elem"        # (LOC_ELEM, array, index)


class RemoteRef:
    """An unresolved reference to an object living in the *home* heap.

    Attributes:
        home_oid: object id in the home VM's heap.
        home_node: name of the home node.
        loc: where this sentinel was decoded into (its *origin*), so
            the fault handler can patch in the fetched object (see
            ``LOC_*``).  Guest code copies sentinels by value, so it is
            one holder of many: a fault converges the receiver temp,
            every same-identity slot of the faulting frame and ``loc``
            — not a copy the guest stored into another object's field,
            which re-faults per read (``preprocess/objectfault.py``).
    """

    __slots__ = ("home_oid", "home_node", "loc")

    def __init__(self, home_oid: int, home_node: str,
                 loc: Optional[Tuple] = None):
        self.home_oid = home_oid
        self.home_node = home_node
        self.loc = loc

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RemoteRef #{self.home_oid}@{self.home_node}>"


def is_nullish(v: Any) -> bool:
    """True if using ``v`` as an object must raise NullPointerException
    (real null, or an unresolved remote reference)."""
    return v is None or isinstance(v, RemoteRef)


def truthy(v: Any) -> bool:
    """Guest truthiness for JZ/JNZ: null/0/0.0/False/"" are false;
    a RemoteRef is *truthy* (it stands for a real object)."""
    if isinstance(v, RemoteRef):
        return True
    return bool(v)

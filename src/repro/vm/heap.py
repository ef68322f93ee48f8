"""The guest heap: object-id registry and allocation.

Every allocated instance/array gets a heap-unique ``oid``.  The object
manager addresses home objects by oid when fetching them across nodes,
and write-back applies updates by oid.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.errors import VMError
from repro.vm.objects import VMArray, VMClass, VMInstance

HeapObject = Union[VMInstance, VMArray]


class Heap:
    """A per-VM heap."""

    def __init__(self) -> None:
        self._objects: Dict[int, HeapObject] = {}
        self._next_oid = 1
        #: total nominal bytes allocated (drives OutOfMemory experiments)
        self.allocated_bytes = 0

    def new_instance(self, vmclass: VMClass) -> VMInstance:
        """Allocate an instance with default field values."""
        obj = VMInstance(vmclass, self._next_oid)
        self._objects[self._next_oid] = obj
        self._next_oid += 1
        self.allocated_bytes += obj.nominal_bytes()
        return obj

    def new_array(self, kind: str, length: int,
                  nominal_elem_bytes: int = 8) -> VMArray:
        """Allocate an array of ``length`` default-valued elements."""
        if length < 0:
            raise VMError(f"negative array length {length}")
        arr = VMArray(kind, length, self._next_oid, nominal_elem_bytes)
        self._objects[self._next_oid] = arr
        self._next_oid += 1
        self.allocated_bytes += arr.nominal_bytes()
        return arr

    def get(self, oid: int) -> HeapObject:
        """Look up an object by oid; raises :class:`VMError` if absent."""
        try:
            return self._objects[oid]
        except KeyError:
            raise VMError(f"dangling oid {oid}") from None

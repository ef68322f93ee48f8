"""Stack segmentation: which frames may migrate.

"One segment should logically map to one agglomerated task" (paper
section II.A).  This module decides which frames of a thread's stack may
travel and which stay pinned at home (frames holding sockets, section
IV.D).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.vm.frames import Frame, ThreadState


def pin_frames(thread: ThreadState,
               predicate: Callable[[Frame], bool]) -> int:
    """Pin every frame matching ``predicate`` (e.g. frames of methods
    known to hold socket connections).  Returns the number pinned."""
    count = 0
    for f in thread.frames:
        if predicate(f):
            f.pinned = True
            count += 1
    return count


def pin_methods(thread: ThreadState, qualnames: Sequence[str]) -> int:
    """Pin frames whose method qualname is in ``qualnames``."""
    names = set(qualnames)
    return pin_frames(thread, lambda f: f.code.qualname in names)


def max_migratable(thread: ThreadState) -> int:
    """The largest top segment that avoids all pinned frames."""
    n = 0
    for f in reversed(thread.frames):
        if f.pinned:
            break
        n += 1
    return n

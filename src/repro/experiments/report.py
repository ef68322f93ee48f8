"""Run every experiment and emit the full paper-vs-repro report.

``python -m repro.experiments.report`` prints every table (``repro
report`` is the same); the calibration model is written down in
:mod:`repro.workloads.registry`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.experiments import (figure1, figure5, roaming, table1, table2,
                               table3, table4, table5, table6, table7)
from repro.experiments.common import Table

ALL: Dict[str, Callable[[], Table]] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "figure5": figure5.run,
    "table6": table6.run,
    "table7": table7.run,
    "roaming": roaming.run,
    "figure1": figure1.run,
}


def generate(names: List[str] | None = None) -> str:
    """Run the named experiments (all by default) and format the report."""
    chunks = []
    for name, fn in ALL.items():
        if names is not None and name not in names:
            continue
        chunks.append(fn().format())
    return "\n\n".join(chunks)


if __name__ == "__main__":  # pragma: no cover
    import sys

    names = sys.argv[1:] or None
    print(generate(names))

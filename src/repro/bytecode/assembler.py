"""The disassembler: renders a :class:`CodeObject` as readable text
(``repro disasm``).  One line per instruction, prefixed by its bci and
marked ``;msp`` at migration-safe points, with ``line N`` at each
source-line start and one ``catch a b -> h Exc`` row per
exception-table entry.
"""

from __future__ import annotations

from repro.bytecode.code import CodeObject


def disassemble(code: CodeObject) -> str:
    """Render a method as readable assembly (branch targets are literal
    bcis)."""
    out = [
        f"method {code.qualname}{' static' if code.is_static else ''} "
        f"params={code.nparams} locals={code.max_locals}"
    ]
    line_at = {bci: ln for bci, ln in code.line_table}
    for bci, ins in enumerate(code.instrs):
        if bci in line_at:
            out.append(f"  line {line_at[bci]}")
        msp = " ;msp" if bci in code.msps else ""
        out.append(f"  {bci:4d}: {ins}{msp}")
    for e in code.exc_table:
        out.append(f"  catch {e.start} {e.end} -> {e.handler} {e.exc_class}")
    return "\n".join(out)

"""Code lines of ``src/repro``, counted the way ROADMAP status lines quote.

A code line is a physical line that carries at least one token other
than a comment or layout (``COMMENT``/``NL``/``NEWLINE``/``INDENT``/
``DEDENT``/``ENDMARKER``), minus the lines of module, class and function
docstrings.  Run as a script for the per-package table::

    python tests/test_code_size.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``src/repro`` may not grow past this without a reason on record.
BUDGET = 13_060

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_line_set(source: str) -> set[int]:
    """Line numbers of the code lines of ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    return len(code_line_set(source))


def count(path: Path) -> int:
    """Code lines of one file, or of every ``*.py`` under a directory."""
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(code_lines(f.read_text()) for f in files)


def table(root: Path = SRC) -> str:
    rows = [(p.name, count(p)) for p in sorted(root.iterdir())
            if (p.is_dir() and p.name != "__pycache__") or p.suffix == ".py"]
    rows.append((root.name, sum(n for _, n in rows)))
    return "\n".join(f"{name:<16}{n:>7,}" for name, n in rows)


def test_src_repro_stays_within_budget():
    total = count(SRC)
    assert total <= BUDGET, (
        f"src/repro has {total:,} code lines, budget {BUDGET:,}: "
        "lower `BUDGET` or raise it here and say why in CHANGES.md"
    )


if __name__ == "__main__":
    print(table())

"""Print the total and the code-only line counts of src/bicrit, then of each module.

Code-only leaves out blank lines, comment lines and docstring lines: a
line counts when it holds a token other than a comment or a string that
stands alone as a statement.  Counted with ``tokenize``.  Each module's
size in bytes, its number of syntax-tree nodes and its compile peak are
printed too, and the largest module by each is named last.  A run's peak
resident memory follows the largest compile of a module, and compiling
holds the whole syntax tree at once, so the node count tracks it better
than the bytes, of which docstrings make up much.  The compile peak is
that memory itself: the most that ``tracemalloc`` sees allocated while
``compile`` turns the module's source into code.

Usage: python .github/src_lines.py
"""

from __future__ import annotations

import ast
import tokenize
import tracemalloc
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "bicrit"

# NEWLINE tokens are kept: they end each logical line.
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> set:
    """The numbers of the lines of ``path`` that hold code."""
    with path.open("rb") as source:
        tokens = [t for t in tokenize.tokenize(source.readline) if t.type not in _SKIPPED]
    lines = set()
    for i, token in enumerate(tokens):
        if token.type == tokenize.NEWLINE:
            continue
        # A docstring: a string that opens a logical line and ends it.
        opens = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        if token.type == tokenize.STRING and opens and tokens[i + 1].type == tokenize.NEWLINE:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return lines


def compile_peak(source: bytes, name: str) -> int:
    """The peak bytes traced while ``compile`` builds the code of ``source``."""
    tracemalloc.start()
    try:
        compile(source, name, "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    rows = []
    for path in sorted(SOURCE.rglob("*.py")):
        name = path.relative_to(SOURCE).as_posix()
        source = path.read_bytes()
        nodes = sum(1 for _ in ast.walk(ast.parse(source)))
        peak = compile_peak(source, name)
        rows.append((name, len(source.splitlines()), len(code_lines(path)), len(source), nodes, peak))
    total = sum(row[1] for row in rows)
    code = sum(row[2] for row in rows)
    print(f"src/bicrit: {total} lines, {code} code-only")
    for name, lines, module_code, size, nodes, peak in rows:
        print(
            f"  {name}: {lines} lines, {module_code} code-only, {size} bytes, {nodes} nodes,"
            f" compile peak {peak} bytes"
        )
    for column, unit in ((3, "bytes"), (4, "nodes"), (5, "bytes of compile peak")):
        row = max(rows, key=lambda row: row[column])
        print(f"largest module by {unit}: {row[0]}, {row[column]} {unit}")


if __name__ == "__main__":
    main()

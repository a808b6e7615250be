"""Print the total and the code-only line counts of src/bicrit, then of each module.

Code-only leaves out blank lines, comment lines and docstring lines: a
line counts when it holds a token other than a comment or a string that
stands alone as a statement.  Counted with ``tokenize``.

Usage: python .github/src_lines.py
"""

from __future__ import annotations

import tokenize
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


def main():
    rows = []
    for path in sorted(SOURCE.rglob("*.py")):
        name = path.relative_to(SOURCE).as_posix()
        rows.append((name, len(path.read_bytes().splitlines()), len(code_lines(path))))
    total = sum(lines for _, lines, _ in rows)
    code = sum(code for _, _, code in rows)
    print(f"src/bicrit: {total} lines, {code} code-only")
    for name, lines, module_code in rows:
        print(f"  {name}: {lines} lines, {module_code} code-only")


if __name__ == "__main__":
    main()

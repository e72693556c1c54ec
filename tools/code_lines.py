"""Count the code lines of a Python package: no blank, comment or docstring lines.

A line is a code line when a token other than a comment or a line break
starts on it or spans it; the lines of a docstring (the first statement of a
module, class or function, when it is a string) are not.  Prints each
module's count and the total.

    python tools/code_lines.py [package directory, default src/quditbell]
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    source = path.read_text()
    with path.open("rb") as handle:
        lines = {
            line
            for token in tokenize.tokenize(handle.readline)
            if token.type not in LAYOUT
            for line in range(token.start[0], token.end[0] + 1)
        }
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    package = Path(argv[1] if len(argv) > 1 else "src/quditbell")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")


if __name__ == "__main__":
    main(sys.argv)

"""Code lines of a source tree: non-blank, non-comment, non-docstring.

Usage: ``python tests/code_lines.py [ROOT]`` (default ``src``) prints one
line a file, one a package (a directory's files, its subpackages'
included) and the total.  A line counts when a token other than a comment
starts or ends on it outside a module, class or function docstring.
"""

import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.update(range(value.lineno, value.end_lineno + 1))
    with path.open("rb") as stream:
        tokens = [tok for tok in tokenize.tokenize(stream.readline) if tok.type not in SKIP]
    lines = {row for tok in tokens for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstrings)


def main(root: Path) -> None:
    totals: Counter = Counter()  # a directory under root (``.``: root) -> its files' lines
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        print(f"{count:7,}  {path}")
        totals.update({package: count for package in path.relative_to(root).parents})
    for package, count in sorted(totals.items()):
        if package != Path("."):
            print(f"{count:7,}  {root / package}/")
    print(f"{totals[Path('.')]:7,}  total")


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else "src"))

"""Count the code lines and all lines of each pooltest module.

    python3 scripts/code_lines.py [ROOT]

ROOT is a checkout (default: the one holding this script); the modules
are ROOT/src/pooltest/*.py. A code line holds a token other than a
comment, outside the docstrings of modules, classes and functions, so
blank lines, comment lines and docstrings do not count; every line of a
statement that spans several lines does. Prints one row per module, then
the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> tuple[int, int]:
    """Code lines and all lines of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(code), len(source.splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("root", nargs="?", default=Path(__file__).resolve().parents[1], type=Path)
    args = ap.parse_args(argv)
    totals = [0, 0]
    print(f"{'module':16s} {'code':>6s} {'lines':>6s}")
    for path in sorted((args.root / "src" / "pooltest").glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:16s} {counts[0]:6d} {counts[1]:6d}")
    print(f"{'total':16s} {totals[0]:6d} {totals[1]:6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

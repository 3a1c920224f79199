"""Size of the fbflows package: lines, code tokens and statements per module.

For each module of ``src/fbflows`` and in total, prints its ``wc -l`` line
count, its ``tokenize`` token count and its ``ast.stmt`` node count.  The
token count leaves out comments, NL, NEWLINE, INDENT, DEDENT and ENDMARKER
tokens and every docstring (the first string statement of a module, class or
function), so it moves with code, not with formatting or prose::

    python tests/code_size.py
    python tests/code_size.py --src ../parent/src

pytest does not collect this script (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list:
    """(start, end) source positions of every docstring in the tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def measure(text: str) -> tuple:
    """(lines, tokens, statements) of one module's source text."""
    tree = ast.parse(text)
    docs = _docstring_spans(tree)
    tokens = sum(1 for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                 if tok.type not in SKIPPED
                 and not any(lo <= tok.start and tok.end <= hi for lo, hi in docs))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return text.count("\n"), tokens, statements


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree to measure (default this checkout's)")
    args = parser.parse_args(argv)
    package = os.path.join(args.src, "fbflows")
    total = [0, 0, 0]
    print("%-16s %6s %7s %6s" % ("module", "lines", "tokens", "stmts"))
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            size = measure(fh.read())
        total = [t + s for t, s in zip(total, size)]
        print("%-16s %6d %7d %6d" % ((name,) + size))
    print("%-16s %6d %7d %6d" % (("total",) + tuple(total)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

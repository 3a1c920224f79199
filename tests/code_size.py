"""Size of the fbflows package: lines, code tokens, statements and settable values per module.

For each module of ``src/fbflows`` and in total, prints its ``wc -l`` line
count, its ``tokenize`` token count, its ``ast.stmt`` node count and its
``params`` count.  The token count leaves out comments, NL, NEWLINE, INDENT,
DEDENT and ENDMARKER tokens and every docstring (the first string statement
of a module, class or function), so it moves with code, not with formatting
or prose.  ``params`` counts the parameters of every ``def`` (``*args`` and
``**kwargs`` included, ``self`` and ``cls`` not, lambdas not) plus the
annotated fields of every dataclass and NamedTuple: the values a caller can
set, the option count of the package::

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


def _params(tree: ast.AST) -> int:
    """The parameters of every function plus the fields of every dataclass and
    NamedTuple in the tree."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                                         a.kwarg) if arg is not None]
            count += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef) and (
                any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                or any("NamedTuple" in ast.unparse(b) for b in node.bases)):
            count += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                         for s in node.body)
    return count


def measure(text: str) -> tuple:
    """(lines, tokens, statements, params) of one module's source text."""
    tree = ast.parse(text)
    docs = _docstring_spans(tree)
    tokens = sum(1 for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                 if tok.type not in SKIPPED
                 and not any(lo <= tok.start and tok.end <= hi for lo, hi in docs))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return text.count("\n"), tokens, statements, _params(tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree to measure (default this checkout's)")
    args = parser.parse_args(argv)
    package = os.path.join(args.src, "fbflows")
    total = [0, 0, 0, 0]
    row = "%-16s %6s %7s %6s %6s"
    print(row % ("module", "lines", "tokens", "stmts", "params"))
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            size = measure(fh.read())
        total = [t + s for t, s in zip(total, size)]
        print(row % ((name,) + size))
    print(row % (("total",) + tuple(total)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

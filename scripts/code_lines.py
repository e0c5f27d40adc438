#!/usr/bin/env python3
"""Count the code lines of the Python files under a directory.

Usage:
    python scripts/code_lines.py <dir>

A code line holds a token that is not a comment, and is not part of a
docstring: the string literal that opens a module, class or function body.
Blank lines and lines of comments alone do not count. Every line of a
multi-line token or statement that is code counts. Prints the total, then
one line per file with its count and path relative to <dir>.
"""

import argparse
import ast
import io
import os
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dir", help="directory searched for .py files")
    args = p.parse_args(argv)
    counts = {}
    for root, dirs, files in os.walk(args.dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    counts[os.path.relpath(path, args.dir)] = code_lines(f.read())
    print(sum(counts.values()))
    for path, count in counts.items():
        print(f"{count:6d} {path}")


if __name__ == "__main__":
    main()

"""Count the code lines of the Python files under a directory.

A code line is a line that holds part of a token other than a comment or a
docstring; blank lines and lines of comments or docstrings only are not
counted.  A docstring is any statement that is a string literal alone (a
module, class or function docstring, or one under an assignment).  A
multi-line token counts every line it spans.

Usage: ``python3 tools/code_lines.py <dir>`` prints the total, and with
``-v`` the count of each file too.
"""

from __future__ import annotations

import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    statement: list[tokenize.TokenInfo] = []  # the tokens of the current logical line
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    verbose = "-v" in argv
    dirs = [a for a in argv if a != "-v"]
    if len(dirs) != 1:
        print("usage: code_lines.py [-v] <dir>", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(pathlib.Path(dirs[0]).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        if verbose:
            print(f"{count:6d} {path}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

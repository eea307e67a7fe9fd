"""Count the code lines of each module of a package and their total.

A code line holds at least one token that is not a comment, and is not part
of a docstring (of a module, class or function).  Blank lines do not count.

    python tools/code_lines.py [DIRECTORY]   # default: src/superact
"""

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    directory = pathlib.Path(argv[0] if argv else "src/superact")
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Count code lines: the lines of Python source that are not blank,
comments or docstrings, as Python's own tokenizer reads them.

    python3 scripts/loc.py              # each module of src/invmh, and the total
    python3 scripts/loc.py FILE ...     # the named files instead

A line counts when a token other than a comment or a line break lies on it,
or inside a string literal that spans it.  A statement made of string
literals alone (a docstring) counts for none of its lines.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(part.type != tokenize.STRING for part in statement):
                for part in statement:
                    lines.update(range(part.start[0], part.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted((ROOT / "src" / "invmh").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

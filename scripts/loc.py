"""Count code lines: the lines of Python source that are not blank,
comments or docstrings, as Python's own tokenizer reads them.

    python3 scripts/loc.py              # each module of src/invmh, and the total
    python3 scripts/loc.py FILE ...     # the named files instead
    python3 scripts/loc.py --base REF   # each module at git revision REF and
                                        # in the working tree, and the deltas

A line counts when a token other than a comment or a line break lies on it,
or inside a string literal that spans it.  A statement made of string
literals alone (a docstring) counts for none of its lines.  With ``--base``,
a module that exists on one side only counts 0 on the other.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/invmh"
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


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def counts_at(ref: str) -> dict[str, int]:
    """The code lines of each module of the package at git revision ``ref``."""
    names = _git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {
        Path(name).stem: code_lines(_git("show", f"{ref}:{PACKAGE}/{name}"))
        for name in names
        if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count code lines.")
    parser.add_argument("files", nargs="*", type=Path, help="files to count instead of the package")
    parser.add_argument("--base", metavar="REF", help="compare the package with git revision REF")
    args = parser.parse_args(argv)
    paths = args.files or sorted((ROOT / PACKAGE).glob("*.py"))
    now = {path.stem: code_lines(path.read_text()) for path in paths}
    if args.base is None:
        for name, count in now.items():
            print(f"{name} {count}")
        print(f"total {sum(now.values())}")
        return 0
    if args.files:
        parser.error("--base compares the package's modules, not named files")
    try:
        base = counts_at(args.base)
    except subprocess.CalledProcessError as exc:
        parser.error(f"git: {exc.stderr.strip()}")
    print(f"module {args.base} working-tree delta")
    for name in sorted(base.keys() | now.keys()):
        old, new = base.get(name, 0), now.get(name, 0)
        print(f"{name} {old} {new} {new - old:+d}")
    old, new = sum(base.values()), sum(now.values())
    print(f"total {old} {new} {new - old:+d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

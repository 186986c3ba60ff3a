"""``scripts/loc.py``: the code-line count of ROADMAP's size figures."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "loc.py"

SNIPPET = '''"""A module docstring
on two lines."""

# A comment line.
import os  # a comment after code


def join(a, b):
    """A function docstring."""
    text = """a string literal
on two lines"""
    return os.path.join(
        a,
        b + text,
    )
'''


def test_counts_code_lines_only(tmp_path):
    # import, def, the two lines of the literal and the four of the call.
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(path)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.splitlines() == ["snippet 8", "total 8"]

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


def test_base_compares_each_module_with_a_git_revision(tmp_path):
    # A throwaway repository with its own copy of the script: one module
    # changed, one deleted and one added since the commit.
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "loc.py").write_text(SCRIPT.read_text())
    package = tmp_path / "src" / "invmh"
    package.mkdir(parents=True)
    (package / "changed.py").write_text("x = 1\n")
    (package / "deleted.py").write_text("import os\nimport sys\n")
    (package / "notes.txt").write_text("not a module\n")
    git = lambda *args: subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=tmp_path, capture_output=True, check=True, timeout=60,
    )
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "changed.py").write_text('"""Doc."""\nx = 1\ny = 2\nz = 3\n')
    (package / "deleted.py").unlink()
    (package / "added.py").write_text("a = 1\n")
    out = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "loc.py"), "--base", "HEAD"],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.splitlines() == [
        "module HEAD working-tree delta",
        "added 0 1 +1",
        "changed 1 3 +2",
        "deleted 2 0 -2",
        "total 3 4 +1",
    ]

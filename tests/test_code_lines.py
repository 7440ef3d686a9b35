"""tools/code_lines.py, the code-line count the ROADMAP line budget is quoted in, run on synthetic checkouts.

A line counts when it holds a token other than a comment or a docstring, so
only code moves the count.
"""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

import math


# a comment line
def area(r):
    """A function docstring."""
    return (math.pi
            * r * r)


class Disk:
    """A class docstring."""

    label = "a string that is not a docstring"
'''
MODULE_LINES = 6  # import, def, the two lines of the return, class, label


def count(root: Path, modules: dict) -> dict:
    """Write modules into root/src/conjsum, run the tool on root and read its '<count> <name>' lines."""
    package = root / "src" / "conjsum"
    package.mkdir(parents=True, exist_ok=True)
    for name, source in modules.items():
        (package / name).write_text(source, encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(root)], capture_output=True, text=True, check=True).stdout
    return {name: int(lines) for lines, name in (line.split(" ", 1) for line in out.splitlines())}


def test_only_code_lines_count(tmp_path):
    assert count(tmp_path, {"disk.py": MODULE}) == {"disk.py": MODULE_LINES, "total": MODULE_LINES}


def test_docstring_and_comment_edits_leave_the_count(tmp_path):
    edited = (
        MODULE.replace("over two lines.", "over three lines,\nnow longer.")
        .replace('"""A function docstring."""', '"""A function docstring,\n\n    now with a paragraph.\n    """')
        .replace("# a comment line", "# a comment line\n# and a second one")
        .replace("    label =", "    # a comment in the class body\n    label =")
    )
    assert edited.count("\n") > MODULE.count("\n") + 4
    assert count(tmp_path / "a", {"disk.py": MODULE}) == count(tmp_path / "b", {"disk.py": edited})


def test_a_code_line_with_a_trailing_comment_counts(tmp_path):
    commented = MODULE.replace("import math\n", "import math  # the trailing comment keeps the line\n")
    assert count(tmp_path, {"disk.py": commented})["disk.py"] == MODULE_LINES
    dropped = MODULE.replace("import math\n", "# import math\n").replace("math.pi", "3.14159")
    assert count(tmp_path / "b", {"disk.py": dropped})["disk.py"] == MODULE_LINES - 1


def test_the_total_is_the_sum_of_the_modules(tmp_path):
    modules = {"disk.py": MODULE, "one.py": "ONE = 1\n", "empty.py": '"""Only a docstring."""\n'}
    (tmp_path / "src" / "conjsum").mkdir(parents=True)
    (tmp_path / "src" / "conjsum" / "notes.txt").write_text("x = 1\n", encoding="utf-8")  # not a module
    got = count(tmp_path, modules)
    assert got == {"disk.py": MODULE_LINES, "empty.py": 0, "one.py": 1, "total": MODULE_LINES + 1}
    assert list(got) == ["disk.py", "empty.py", "one.py", "total"]  # modules in name order, then the total

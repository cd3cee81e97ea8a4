"""The source-line counter that states the size of ``src/ionbridge``."""

import subprocess
import sys
from pathlib import Path

from source_lines import count_lines

SCRIPT = Path(__file__).with_name("source_lines.py")

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment is still code

# a comment line


class Shape:
    """Class docstring."""

    def area(self, r):
        """Function docstring,

        with a blank line inside."""
        total = (math.pi
                 * r ** 2)
        text = """a string that is
not a docstring"""
        return total, text
'''


def test_counts_docstrings_comments_and_blanks_out():
    # code: the import, class, def, the two lines of total, the two of
    # text, and the return
    assert count_lines(SAMPLE) == (20, 8)


def test_a_file_without_a_final_newline_counts_as_wc_does():
    assert count_lines("x = 1\ny = 2") == (1, 2)


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("not python\n")
    result = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                            capture_output=True, text=True, check=True)
    rows = [line.split() for line in result.stdout.splitlines()]
    assert rows == [["module", "lines", "code"], ["empty.py", "0", "0"],
                    ["sample.py", "20", "8"], ["total", "20", "8"]]

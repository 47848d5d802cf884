"""``tools/code_lines.py`` counts the lines that hold code, and no docstring,
comment or blank line."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves its line a code line

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring:
    an assigned string"""

    def f(self, y):
        \'\'\'Function docstring,

        with a blank line.\'\'\'
        return (y +
                1)
'''


def _tool():
    spec = importlib.util.spec_from_file_location(
        "focklab_code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_code_lines_are_counted(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, x = (two lines), def, return (two lines)
    assert _tool().code_lines(str(path)) == 7


def test_the_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert _tool().main([str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1].split() == ["3", "total"]

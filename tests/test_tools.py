import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts

# a comment alone does not


class A:
    """Class docstring."""

    x = 1
    """An attribute docstring."""

    def f(self, a,
          b):
        """Function docstring."""
        text = """a string value
spans three
lines"""
        return (a +
                b)
'''


def test_code_lines_on_a_snippet(tmp_path, capsys):
    tool = _load("code_lines")
    # import, class, x, the def's two lines, text's three, return's two
    assert tool.code_lines(SNIPPET) == 10
    assert tool.code_lines("") == 0
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("y = 2\n\n")
    (tmp_path / "notes.txt").write_text("z = 3\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "11\n"

"""``tools/code_lines.py`` counts the lines that hold code, nothing else."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = textwrap.dedent(
        '''\
        """Module docstring,
        on two lines."""

        # a comment
        X = 1  # a comment after code counts as code


        class C:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                return """a string
        that is not a docstring"""
        '''
    )
    # X = 1; class C:; def f(self):; the two lines of the returned string
    assert _tool().code_lines(source) == 5


def test_the_package_is_counted(capsys):
    assert _tool().main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for name, count in (row.split() for row in rows)}
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total") > 0
    assert "membership.py" in counts

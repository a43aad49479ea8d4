import textwrap

from codelines import code_lines, main

SNIPPET = textwrap.dedent('''\
    """Module docstring,
    two lines."""

    import os  # a trailing comment counts as code

    # a comment line


    class A:
        """Class docstring."""

        def f(self, x):
            """Function docstring,

            with a blank line."""
            text = """not a docstring,

            three lines"""
            return os.path.join(x,
                                text)


    def g(): """One-line body docstring."""; return 1
    ''')


def test_counts_code_outside_comments_docstrings_and_blanks():
    # import, class, def f, the assignment's two non-blank lines (not the
    # blank line inside its string), the two-line call, and def g
    assert code_lines(SNIPPET) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n")
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].split()[1] == "total"

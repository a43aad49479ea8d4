import sys
import textwrap

from traffic import collecting, executable_lines, not_run

TOY = textwrap.dedent('''\
    """Toy module for the traffic trace."""


    def branch(x):
        """A docstring and a global statement compile to no code."""
        global SEEN
        if x:
            return "taken"
        return "not taken"
    ''')


def test_executable_lines_are_statements_with_code():
    # the module docstring is stored at import; def, if and both returns
    assert executable_lines(TOY) == {1, 4, 7, 8, 9}


def test_collecting_reports_the_statements_not_run(tmp_path, monkeypatch):
    path = tmp_path / "toy_traffic.py"
    path.write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        with collecting(tmp_path) as hits:
            import toy_traffic  # imported under the trace: lines 1 and 4 run
            assert toy_traffic.branch(True) == "taken"
        assert toy_traffic.branch(False) == "not taken"  # after the trace
    finally:
        sys.modules.pop("toy_traffic", None)
    assert not_run(tmp_path, hits) == {str(path): [9]}

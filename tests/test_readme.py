"""The examples in README.md run and give what the README shows.

Each fenced block that starts with `$ dimerphase ...` is run through
cli.main, and its output is compared with the lines under the command.  A
`...` line stands for any number of output lines, so a block that elides
lines is compared on the lines it shows.  The fenced `python` block, the
library example, is executed, and the loop phases it names are checked
against the values in its comments.
"""

import math
import re
import shlex
from pathlib import Path

import pytest

from dimerphase import cli

README = Path(__file__).parent.parent / "README.md"


def _examples():
    blocks = re.findall(r"^```\n(\$ dimerphase .*?)^```$", README.read_text(), re.M | re.S)
    return [(lines[0][2:], lines[1:]) for lines in (b.splitlines() for b in blocks)]


def _pattern(shown):
    """A regex for the whole output: each shown line literally, `...` any lines."""
    return "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown)


def test_readme_has_command_examples():
    assert [command.split()[1] for command, _ in _examples()] == ["spectrum", "triple"]


@pytest.mark.parametrize(
    "command, shown", [pytest.param(command, shown, id=command) for command, shown in _examples()]
)
def test_readme_example_prints_what_it_shows(command, shown, capsys):
    assert cli.main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(_pattern(shown), out), out


def test_readme_library_example_gives_the_loop_phases_it_shows():
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    names = {}
    exec(block, names)
    assert names["gamma"] == pytest.approx(0.2 * math.pi)
    assert abs(names["gamma"] - names["gamma_discrete"]) < 1e-6

"""Golden CSV regression: the body rows of fixed command-line runs.

Each file under tests/golden/ holds the output of `dimerphase <args>` with its
`#` comment lines removed, so header changes (version, config summary, hash)
do not touch it while every data byte does.  The spectrum grid includes the
fully degenerate origin and the v = 0 row, where the fully polarized states
and, for |R| < c, the E = 0 state with a free relative phase are each listed
once; the berry and witness grids each cover R < 0, R = 0 and R > 0.
"""

from pathlib import Path

import pytest

from dimerphase.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum": ["spectrum", "--R=-1:1:11", "--v", "0:1:11", "--c", "1"],
    "berry": ["berry", "--R=-0.5:0.5:3", "--v", "0.5:1.5:3", "--c", "1"],
    "witness": ["witness", "--R=-0.5:0.5:3", "--v", "0.5:1.5:3", "--c", "1"],
    "echo": ["echo", "--T", "1", "--dt", "0.01"],
    "echo_degenerate": ["echo", "--R", "0", "--v", "0", "--c", "0", "--T", "1", "--dt", "0.01"],
    "triple": ["triple"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_body_rows_match_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert body == (GOLDEN / f"{name}.csv").read_text().splitlines()

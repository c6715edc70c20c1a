"""Each resource cap the README states is the constant the code enforces.

The README gives every cap as a number followed by the constant's name in
parentheses, such as "at most 6 (`cli.MAX_DIM`"; every such mention must
read the constant's value, and each constant must be mentioned.
"""

import re
from pathlib import Path

import pytest

from ncqm import cli, exact_algebra, star

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

CAPS = [
    (cli, "MAX_DIM"),
    (cli, "MAX_ORDER"),
    (star, "MAX_GRADE"),
    (exact_algebra, "MAX_DEGREE"),
    (exact_algebra, "MAX_COEFF_BITS"),
    (exact_algebra, "MAX_NESTING"),
    (exact_algebra, "MAX_EXPONENT"),
    (exact_algebra, "MOMENT_TABLE_SIZE"),
]


@pytest.mark.parametrize("module, name", CAPS, ids=[name for _, name in CAPS])
def test_readme_states_the_cap(module, name):
    short = module.__name__.rpartition(".")[2]
    stated = re.findall(rf"(\d+)[^()\d]{{0,40}}\(`{short}\.{name}`", README)
    assert stated, f"the README states no value for {short}.{name}"
    assert {int(v) for v in stated} == {getattr(module, name)}

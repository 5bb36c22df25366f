"""The README's library quick start, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start():
    result = doctest.testfile(str(README), module_relative=False,
                              optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0
    assert result.failed == 0

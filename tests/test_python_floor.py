"""Every file under src/ and tests/ parses as Python 3.10, the floor that
pyproject.toml declares, whichever interpreter runs the suite."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def test_floor_is_3_10():
    floor = re.search(r'^requires-python = "(.*)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert floor.group(1) == ">=3.10"


@pytest.mark.parametrize("path", FILES, ids=[str(path.relative_to(ROOT)) for path in FILES])
def test_parses_as_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))

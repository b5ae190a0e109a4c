"""Every Python file of the project parses as the oldest Python that
pyproject.toml supports, whichever interpreter runs the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(p.relative_to(ROOT).as_posix() for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_oldest_matches_pyproject():
    spec = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert spec and tuple(map(int, spec.groups())) == OLDEST


@pytest.mark.parametrize("path", SOURCES)
def test_parses_as_oldest_python(path):
    source = (ROOT / path).read_text()
    ast.parse(source, filename=path, feature_version=OLDEST)

"""Collects ``selftest`` for ``python -m pytest benchmarks/e2e -q``."""

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
for path in (str(HERE.parent.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import selftest  # noqa: E402


@pytest.mark.parametrize("check", selftest.CHECKS, ids=lambda c: c.__name__)
def test_selftest(check):
    check()

"""Checks of the project's own settings: the declared Python floor and the
pytest warning filters."""

import ast
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_declared_python_floor():
    """Every .py file under src/, tests/ and perfbench/ is valid syntax at the
    `requires-python` floor. This is ast's best-effort grammar check: it does
    not catch a newer standard library name."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    floor = int(match[1]), int(match[2])
    paths = sorted(p for part in ("src", "tests", "perfbench") for p in (ROOT / part).rglob("*.py"))
    assert paths
    too_new = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            too_new.append(f"{path.relative_to(ROOT)}: {exc}")
    assert not too_new, f"syntax newer than Python {floor}: {too_new}"


def test_failing_hypothesis_test_fails_alone(tmp_path):
    """A failing @given test is reported as one failure and the run goes on.
    When hypothesis explains a failure it imports libcst, which warns; the
    warning filters must not turn that into an INTERNALERROR ending the run."""
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out

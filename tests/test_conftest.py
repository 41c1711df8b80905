"""The suite's conftest keeps a failing hypothesis test reportable."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(n):
    assert n < 5
'''


def test_a_failing_given_test_prints_its_example_not_an_internal_error(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "pyproject.toml").write_text('[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    (tmp_path / "test_failing.py").write_text(FAILING_TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed" in done.stdout

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# The `pythonpath` setting in pyproject.toml puts src/ on this process's path;
# the tests that start a fresh interpreter need it in the environment as well.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True, scope="session")
def no_child_left_unreaped():
    """After the last test, this process has no child: every fork made by a
    parallel Monte Carlo run and every subprocess was reaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"a child process was left behind (waitpid: {pid}, {status})")

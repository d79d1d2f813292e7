import os
from pathlib import Path

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

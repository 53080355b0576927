import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, env=None, **kwargs):
    """Invoke the CLI of this checkout's src/ as a subprocess and return
    CompletedProcess; env (default os.environ) gets src/ put first on its
    PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "aoi_sched", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


@pytest.fixture
def cli():
    return run_cli

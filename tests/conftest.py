import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def run_cli(args, **kwargs):
    """Invoke the installed CLI as a subprocess and return CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "aoi_sched", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def cli():
    return run_cli

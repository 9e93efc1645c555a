import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))


@pytest.fixture
def cli_env():
    """Environment in which ``python -m kahlerimm.cli`` finds the sources."""
    return dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))

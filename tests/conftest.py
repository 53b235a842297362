from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from satake.fixtures import FIXTURES
from satake.lattice import RootDatum

# rank-3 stretch case in the fundamental-weight basis
SL4 = RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
                ((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="SL4")


@pytest.fixture(params=list(FIXTURES))
def fixture_datum(request):
    return FIXTURES[request.param].datum


def datum(name: str):
    return FIXTURES[name].datum

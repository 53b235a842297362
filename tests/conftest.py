from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from satake.fixtures import FIXTURES
from satake.lattice import RootDatum, dual_root_datum

# rank-3 stretch case in the fundamental-weight basis
SL4 = RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
                ((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="SL4")

ALL_DATA = ([fx.datum for fx in FIXTURES.values()]
            + [dual_root_datum(fx.datum) for fx in FIXTURES.values()] + [SL4])

# edge cases: a central torus in rank 3 (labels do not determine the
# weight), a pure torus (2rho^vee = 0) and the rank-0 datum
GL3 = RootDatum(3, ((1, -1, 0), (0, 1, -1)), ((1, -1, 0), (0, 1, -1)), name="GL3")
TORUS2 = RootDatum(2, (), (), name="T2")
TORUS0 = RootDatum(0, (), (), name="T0")
# the node swap fixes the Cartan matrix of A1 x A1 but not this datum
SL2_PGL2 = RootDatum(2, ((2, 0), (0, 1)), ((1, 0), (0, 2)), name="SL2xPGL2")
# A1 with a central torus whose root span (the line of (1, 0)) differs from
# its coroot span (the line of (1, 1)); on every other datum with a central
# torus the two spans agree, so only these two tell the map onto the
# roots' span from its transpose: (1, 1) lies off this datum's root span
A1SKEW = RootDatum(2, ((2, 0),), ((1, 1),), name="A1skew")
A1SKEW_DUAL = dual_root_datum(A1SKEW)
EDGE_DATA = [GL3, TORUS2, TORUS0, A1SKEW, A1SKEW_DUAL]


@pytest.fixture(params=list(FIXTURES))
def fixture_datum(request):
    return FIXTURES[request.param].datum


def datum(name: str):
    return FIXTURES[name].datum

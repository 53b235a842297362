"""Shipped root-datum fixtures with documented bases and dump bounds.

Bases:
  SL2   X = Z w         (w the fundamental weight); alpha = 2w
  PGL2  X = Z a         (a the root, generating X)
  GL2   X = Z^2         (diagonal characters e1, e2); alpha = e1 - e2
  SL3   X = Z^2         (fundamental weights w1, w2)
  PGL3  X = Z^2         (root basis a1, a2)
  Sp4   X = Z^2         (symplectic characters e1, e2); long root 2*e2
  G2    X = Z^2         (fundamental weights; alpha1 long, alpha2 short)

``dump_bound`` is the height/coordinate bound handed to the duality
round-trip: large enough that the dual's dump certifies its core monoid,
simple roots, and coroot fits with k_max = 4.  The values are empirical and
exercised by the acceptance suite.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lattice import RootDatum


@dataclass(frozen=True)
class Fixture:
    name: str
    datum: RootDatum
    dump_bound: int


FIXTURES: dict[str, Fixture] = {}


def _add(name: str, datum: RootDatum, dump_bound: int) -> None:
    FIXTURES[name] = Fixture(name=name, datum=datum, dump_bound=dump_bound)


_add("SL2", RootDatum(1, ((2,),), ((1,),), name="SL2"), dump_bound=8)
_add("PGL2", RootDatum(1, ((1,),), ((2,),), name="PGL2"), dump_bound=8)
_add("GL2", RootDatum(2, ((1, -1),), ((1, -1),), name="GL2"), dump_bound=8)
_add("SL3", RootDatum(2, ((2, -1), (-1, 2)), ((1, 0), (0, 1)), name="SL3"), dump_bound=30)
_add("PGL3", RootDatum(2, ((1, 0), (0, 1)), ((2, -1), (-1, 2)), name="PGL3"), dump_bound=16)
_add("Sp4", RootDatum(2, ((1, -1), (0, 2)), ((1, -1), (0, 1)), name="Sp4"), dump_bound=20)
_add("G2", RootDatum(2, ((2, -3), (-1, 2)), ((1, 0), (0, 1)), name="G2"), dump_bound=32)


def get_fixture(name: str) -> Fixture:
    for candidate in FIXTURES.values():
        if candidate.name.upper() == name.upper():
            return candidate
    raise KeyError(name)

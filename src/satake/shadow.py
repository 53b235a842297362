"""Orbit posets, stratum dimensions, parity, and convolution decompositions
of the affine Grassmannian, realized exactly through the dual group.

Nothing geometric is simulated here: a dominant coweight of the group is a
dominant weight of the dual datum, orbit dimensions come from the 2rho
pairing, and convolution multiplicities are tensor multiplicities over the
dual.  Division-by-two sites assert evenness instead of returning rationals:
an odd value means corrupted input, not a rounding choice.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InconsistencyError
from .lattice import (
    RootDatum,
    Weight,
    coroot_height,
    dominant_representative,
    dual_root_datum,
    is_dominant,
    leq_dominance,
    pairing,
    two_rho,
)
from .semiring import Decomposition, tensor_decompose_list, weyl_dim


@dataclass(frozen=True)
class SatakeContext:
    """A group datum together with its dual; coweights of the group are
    weights of ``rd_dual``."""

    rd_group: RootDatum
    rd_dual: RootDatum

    def __post_init__(self) -> None:
        if self.rd_dual != dual_root_datum(self.rd_group):
            raise DomainError("rd_dual must be the exact dual of rd_group")

    @classmethod
    def for_group(cls, rd: RootDatum) -> "SatakeContext":
        return cls(rd_group=rd, rd_dual=dual_root_datum(rd))


@dataclass(frozen=True)
class StratumReport:
    """Emptiness and dimension of one semi-infinite stratum inside an orbit
    closure."""

    mu: Weight
    nu: Weight
    nonempty: bool
    dim: int | None


def _check_dual_dominant(ctx: SatakeContext, mu: Weight) -> None:
    if not is_dominant(ctx.rd_dual, mu):
        raise DomainError(f"coweight {mu} is not dominant")


def _even_half(value: int, what: str) -> int:
    if value % 2:
        raise InconsistencyError(f"odd pairing in {what}: {value}")
    return value // 2


def orbit_dim(ctx: SatakeContext, mu: Weight) -> int:
    """Dimension of the orbit attached to a dominant coweight: <2rho, mu>."""
    _check_dual_dominant(ctx, mu)
    return pairing(two_rho(ctx.rd_group), mu)


def closure_contains(ctx: SatakeContext, lam: Weight, mu: Weight) -> bool:
    """Whether the lam-orbit lies in the closure of the mu-orbit: dominance
    order on the coweight side."""
    _check_dual_dominant(ctx, lam)
    _check_dual_dominant(ctx, mu)
    return leq_dominance(ctx.rd_dual, lam, mu)


def stratum(ctx: SatakeContext, mu: Weight, nu: Weight) -> StratumReport:
    """Report on the nu-stratum of the mu-orbit closure: nonempty iff the
    dominant representative of nu lies below mu, of dimension
    <rho, mu + nu> when nonempty."""
    _check_dual_dominant(ctx, mu)
    rep, _ = dominant_representative(ctx.rd_dual, tuple(nu))
    if not leq_dominance(ctx.rd_dual, rep, tuple(mu)):
        return StratumReport(mu=tuple(mu), nu=tuple(nu), nonempty=False, dim=None)
    total = pairing(two_rho(ctx.rd_group), tuple(m + n for m, n in zip(mu, nu)))
    return StratumReport(mu=tuple(mu), nu=tuple(nu), nonempty=True,
                         dim=_even_half(total, "stratum dimension"))


def semismall_bound(ctx: SatakeContext, mus: Sequence[Weight], lam: Weight) -> int:
    """Fiber-dimension bound <rho, |mu| - lam> of the convolution morphism
    over the lam-orbit.  Requires lam below the total weight."""
    for mu in mus:
        _check_dual_dominant(ctx, mu)
    _check_dual_dominant(ctx, lam)
    total = tuple(sum(mu[i] for mu in mus) for i in range(ctx.rd_group.rank))
    if not leq_dominance(ctx.rd_dual, tuple(lam), total):
        raise DomainError(f"{lam} is not below the total coweight {total}")
    diff = tuple(t - l for t, l in zip(total, lam))
    return _even_half(pairing(two_rho(ctx.rd_group), diff), "semismall bound")


def convolution_decompose(ctx: SatakeContext, mus: Sequence[Weight]) -> Decomposition:
    """Decomposition of the convolution of the mu_i-orbit sheaves: the tensor
    decomposition over the dual datum."""
    return tensor_decompose_list(ctx.rd_dual, [tuple(mu) for mu in mus])


def component_parity(ctx: SatakeContext, mu: Weight) -> int:
    """Parity of the connected component holding the mu-orbit: <2rho, mu>
    mod 2 (2rho is the dual's 2rho^vee), well defined modulo coroots."""
    return coroot_height(ctx.rd_dual, mu) % 2


def global_sections_dim(ctx: SatakeContext, mu: Weight) -> int:
    """Total cohomology dimension of the mu-orbit intersection complex: the
    dual irreducible's dimension."""
    _check_dual_dominant(ctx, mu)
    return weyl_dim(ctx.rd_dual, tuple(mu))

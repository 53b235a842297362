from __future__ import annotations

import random

import pytest

from conftest import TORUS2, datum
from satake.errors import DomainError
from satake.lattice import (
    dominant_representative,
    dominant_window,
    dual_root_datum,
    leq_dominance,
    pairing,
    saturation_set,
    two_rho,
)
from satake.semiring import prv_multiplicity, weight_multiplicities
from satake.shadow import (
    SatakeContext,
    closure_contains,
    component_parity,
    convolution_decompose,
    global_sections_dim,
    orbit_dim,
    semismall_bound,
    stratum,
)


def ctx(name):
    return SatakeContext.for_group(datum(name))


class TestOrbitDim:
    def test_values(self):
        assert orbit_dim(ctx("SL2"), (0,)) == 0
        assert orbit_dim(ctx("SL2"), (1,)) == 2
        assert orbit_dim(ctx("PGL2"), (1,)) == 1

    def test_non_dominant(self):
        with pytest.raises(DomainError):
            orbit_dim(ctx("SL2"), (-1,))
        # a float coweight used to pass as dominant, of dimension 2.0
        with pytest.raises(DomainError, match="must be integers"):
            orbit_dim(ctx("SL2"), (1.0,))


class TestClosure:
    def test_reflexive(self):
        assert closure_contains(ctx("SL2"), (2,), (2,))

    def test_sl2(self):
        assert closure_contains(ctx("SL2"), (0,), (2,))

    def test_pgl2_components(self):
        assert not closure_contains(ctx("PGL2"), (0,), (1,))


class TestStratum:
    def test_open_stratum(self):
        for name in ("SL2", "PGL2", "Sp4", "G2"):
            c = ctx(name)
            for mu in dominant_window(c.rd_dual, 6):
                report = stratum(c, mu, mu)
                assert report.nonempty and report.dim == orbit_dim(c, mu)

    def test_sl2_antidominant(self):
        report = stratum(ctx("SL2"), (1,), (-1,))
        assert report.nonempty and report.dim == 0

    def test_empty(self):
        report = stratum(ctx("SL2"), (1,), (3,))
        assert not report.nonempty and report.dim is None

    def test_nonempty_iff_weight_of_dual_irreducible(self):
        c = ctx("Sp4")
        for mu in dominant_window(c.rd_dual, 6):
            support = set(weight_multiplicities(c.rd_dual, mu))
            for nu in saturation_set(c.rd_dual, mu):
                assert stratum(c, mu, nu).nonempty
                assert nu in support


class TestSemismall:
    def test_open_orbit(self):
        assert semismall_bound(ctx("SL2"), [(1,), (1,)], (2,)) == 0

    def test_sl2_value(self):
        # <rho, |mu| - lambda> = <2rho, 2 - 0>/2 = 2 for two minuscule factors
        assert semismall_bound(ctx("SL2"), [(1,), (1,)], (0,)) == 2

    def test_pgl3_value(self):
        assert semismall_bound(ctx("PGL3"), [(1, 0), (0, 1)], (0, 0)) == 2

    def test_precondition(self):
        with pytest.raises(DomainError):
            semismall_bound(ctx("SL2"), [(1,)], (3,))

    def test_torus_rejects_wrong_length(self):
        # a torus has no coroot to check a coweight's length by pairing
        torus = SatakeContext.for_group(TORUS2)
        with pytest.raises(DomainError):
            semismall_bound(torus, [(1,)], (1, 0))
        with pytest.raises(DomainError):
            orbit_dim(torus, (1,))


class TestConvolution:
    def test_single(self):
        assert convolution_decompose(ctx("SL2"), [(2,)]) == {(2,): 1}

    def test_pgl2(self):
        assert convolution_decompose(ctx("PGL2"), [(1,), (1,)]) == {(2,): 1, (0,): 1}

    def test_pgl3(self):
        assert convolution_decompose(ctx("PGL3"), [(1, 0), (1, 0)]) == {(2, 0): 1, (0, 1): 1}

    def test_constituents_coherent(self):
        for name in ("SL2", "PGL2", "SL3", "Sp4"):
            c = ctx(name)
            weights = dominant_window(c.rd_dual, 4)
            for mu1 in weights:
                for mu2 in weights:
                    total = tuple(a + b for a, b in zip(mu1, mu2))
                    dec = convolution_decompose(c, [mu1, mu2])
                    for lam in dec:
                        assert leq_dominance(c.rd_dual, lam, total)
                        assert component_parity(c, lam) == component_parity(c, total)
                        assert semismall_bound(c, [mu1, mu2], lam) >= 0

    def test_prv_component_present(self):
        c = ctx("PGL3")
        rng = random.Random(3)
        weights = [w for w in dominant_window(c.rd_dual, 6) if any(w)]
        for _ in range(20):
            mus = [weights[rng.randrange(len(weights))] for _ in range(2)]
            words = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))) for _ in range(2)]
            lam, _ = prv_multiplicity(c.rd_dual, mus, words)
            assert lam in convolution_decompose(c, mus)


class TestParity:
    def test_values(self):
        assert component_parity(ctx("PGL2"), (0,)) == 0
        assert component_parity(ctx("PGL2"), (1,)) == 1
        assert all(component_parity(ctx("SL2"), (n,)) == 0 for n in range(-3, 4))
        # a float coweight used to get the parity 1.0
        with pytest.raises(DomainError, match="must be integers"):
            component_parity(ctx("SL2"), (0.5,))

    def test_well_defined_mod_coroots(self):
        c = ctx("PGL2")
        for mu in range(-3, 4):
            for cov in c.rd_group.simple_coroots:
                shifted = tuple(m + v for m, v in zip((mu,), cov))
                assert component_parity(c, (mu,)) == component_parity(c, shifted)


class TestGlobalSections:
    def test_values(self):
        assert global_sections_dim(ctx("SL2"), (0,)) == 1
        assert global_sections_dim(ctx("PGL2"), (1,)) == 2
        assert global_sections_dim(ctx("PGL3"), (1, 1)) == 8

    def test_minuscule_orbit_cohomology(self):
        # closed minuscule orbit: total cohomology dim = orbit dim + 1
        c = ctx("PGL2")
        assert global_sections_dim(c, (1,)) == orbit_dim(c, (1,)) + 1


class TestContext:
    def test_requires_exact_dual(self):
        with pytest.raises(DomainError):
            SatakeContext(rd_group=datum("SL2"), rd_dual=datum("SL2"))

    def test_for_group(self):
        c = SatakeContext.for_group(datum("Sp4"))
        assert c.rd_dual == dual_root_datum(datum("Sp4"))

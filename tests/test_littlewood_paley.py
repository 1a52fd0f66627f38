"""Dyadic partition, Besov norms, Bony decomposition, Bernstein ratios."""

import numpy as np
import pytest

from qgk.grid import GridSpec, SpectralField, multiplier_table
from qgk import littlewood_paley as lp
from qgk import spectral as sp


@pytest.fixture(scope="module")
def g():
    return GridSpec(64, 2 * np.pi)


@pytest.fixture(scope="module")
def partition(g):
    return lp.dyadic_partition(g)


def rand(g, seed, hi=None):
    return sp.random_band_field(g, seed, 1.0, 3.0, 1, hi or g.n // 3)


class TestPartition:
    def test_profile_shape(self):
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        chi = lp.chi_profile(t)
        assert np.all(chi[:3] == 1.0)
        assert 0.0 < chi[3] < 1.0
        assert np.all(chi[4:] == 0.0)
        # monotone on the transition
        fine = lp.chi_profile(np.linspace(0.9, 2.1, 200))
        assert np.all(np.diff(fine) <= 1e-15)

    def test_partition_of_unity(self, g, partition):
        total = np.zeros(g.band_shape)
        for j in partition.block_range():
            total += partition.weights[j + 1]
        keep = multiplier_table(g).keep.astype(bool)
        assert np.max(np.abs(total[keep] - 1.0)) <= 1e-12

    def test_annulus_support(self, g, partition):
        k1, k2 = multiplier_table(g).k1, multiplier_table(g).k2
        rho = np.hypot(k1, k2)
        for j in range(0, partition.j_max + 1):
            w = partition.weights[j + 1]
            outside = (rho < 2.0 ** (j - 1)) | (rho > 2.0 ** (j + 1))
            assert np.all(w[outside] == 0.0)
        # low block: ball of radius 1
        assert np.all(partition.weights[0][rho > 1.0] == 0.0)

    def test_mean_mode_in_low_block(self, g, partition):
        assert partition.weights[0][0, 0] == 1.0
        for j in range(0, partition.j_max + 1):
            assert partition.weights[j + 1][0, 0] == 0.0

    def test_index_range_errors(self, g, partition):
        u = rand(g, 1)
        with pytest.raises(ValueError):
            lp.dyadic_block(partition, u, partition.j_max + 1)
        with pytest.raises(ValueError):
            lp.dyadic_block(partition, u, -2)
        with pytest.raises(ValueError):
            lp.low_cut(partition, u, -1)


class TestBlocks:
    def test_reconstruction(self, g, partition):
        u = rand(g, 2)
        total = np.zeros(g.band_shape, complex)
        for j in partition.block_range():
            total += lp.dyadic_block(partition, u, j).band
        err = sp.l2_norm(SpectralField(g, total - u.band)) / sp.l2_norm(u)
        assert err <= 1e-12

    def test_almost_orthogonality(self, g, partition):
        u = rand(g, 3)
        for j in partition.block_range():
            bj = lp.dyadic_block(partition, u, j)
            for q in partition.block_range():
                if abs(j - q) >= 2:
                    bb = lp.dyadic_block(partition, bj, q)
                    assert np.max(np.abs(bb.coeffs)) <= 1e-13

    def test_single_mode_at_dyadic_center(self, g, partition):
        # |k| = 2^j sits where the block weight is exactly 1
        j = 3
        u = sp.cosine_field(g, 2 ** j, 0, 1.0)
        captured = lp.dyadic_block(partition, u, j)
        assert np.max(np.abs(captured.coeffs - u.coeffs)) <= 1e-15
        for q in (j - 1, j + 1):
            neighbor = lp.dyadic_block(partition, u, q)
            assert np.max(np.abs(neighbor.coeffs)) <= 1e-12

    def test_low_cut_is_partial_sum(self, g, partition):
        u = rand(g, 4)
        for j in range(0, 4):
            s = lp.low_cut(partition, u, j)
            acc = np.zeros(g.band_shape, complex)
            for k in range(-1, j):
                acc += lp.dyadic_block(partition, u, k).band
            assert np.max(np.abs(s.band - acc)) <= 1e-14


class TestBesov:
    def test_zero_field(self, g, partition):
        zero = SpectralField(g, np.zeros(g.band_shape, complex))
        assert lp.besov_norm(partition, zero, 1.5) == 0.0

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0, 3.0])
    def test_sobolev_equivalence(self, g, partition, s):
        lo, hi = lp.besov_sobolev_bounds(partition, s)
        assert 0.0 < lo <= hi < np.inf
        for seed in (5, 6, 7):
            u = rand(g, seed)
            ratio = lp.besov_norm(partition, u, s) / sp.sobolev_norm(u, s)
            assert lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)

    def test_s_zero_within_l2_constants(self, g, partition):
        lo, hi = lp.besov_sobolev_bounds(partition, 0.0)
        u = rand(g, 8)
        ratio = lp.besov_norm(partition, u, 0.0) / sp.l2_norm(u)
        assert lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)


class TestBony:
    def test_reconstruction_random(self, g, partition):
        u, v = rand(g, 9, hi=20), rand(g, 10, hi=20)
        total = (lp.paraproduct(partition, u, v).band
                 + lp.paraproduct(partition, v, u).band
                 + lp.remainder(partition, u, v).band)
        ref = sp.dealiased_product(u, v)
        err = sp.l2_norm(SpectralField(g, total - ref.band)) / sp.l2_norm(ref)
        assert err <= 1e-12

    def test_constant_first_factor(self, g, partition):
        const = SpectralField(g, np.zeros(g.band_shape, complex))
        const.band[0, 0] = 3.0
        v = rand(g, 11)
        tv = lp.paraproduct(partition, const, v)
        # T_const v = const * (blocks j >= 1 of v)
        high = np.zeros(g.band_shape, complex)
        for j in range(1, partition.j_max + 1):
            high += lp.dyadic_block(partition, v, j).band
        assert np.max(np.abs(tv.band - 3.0 * high)) <= 1e-12 * np.max(np.abs(high))
        # reconstruction still exact
        total = (tv.band + lp.paraproduct(partition, v, const).band
                 + lp.remainder(partition, const, v).band)
        ref = 3.0 * v.band
        assert np.max(np.abs(total - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_low_mode_second_factor_gives_zero(self, g, partition):
        u = rand(g, 12)
        v = sp.cosine_field(g, 1, 0, 1.0)  # lives in the j = -1 block
        tv = lp.paraproduct(partition, u, v)
        assert np.max(np.abs(tv.coeffs)) <= 1e-15

    def test_paraproduct_term_spectral_support(self, g, partition):
        # S_{j-1} u * block_j v vanishes outside radius 2.5 * 2^j
        u, v = rand(g, 13), rand(g, 14)
        k1, k2 = multiplier_table(g).k1, multiplier_table(g).k2
        rho = np.hypot(k1, k2)
        for j in (3, 4):
            su = lp.low_cut(partition, u, j - 1)
            dv = lp.dyadic_block(partition, v, j)
            term = sp.dealiased_product(su, dv)
            outside = rho > 2.5 * 2.0 ** j
            scale = np.max(np.abs(term.band))
            assert np.max(np.abs(term.band[outside])) <= 1e-14 * scale


class TestBernstein:
    def test_order_zero_is_one(self, g, partition):
        u = lp.dyadic_block(partition, rand(g, 15), 3)
        assert lp.bernstein_ratio(partition, u, 3, 0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("k,band", [(1, (0.25, 4.0)), (2, (0.0625, 16.0))])
    def test_ratio_bands(self, g, partition, k, band):
        lo, hi = band
        for seed in (16, 17):
            u = rand(g, seed)
            for j in partition.block_range():
                if j < 0:
                    continue
                block = lp.dyadic_block(partition, u, j)
                r = lp.bernstein_ratio(partition, block, j, k)
                if np.isnan(r):
                    continue
                assert lo <= r <= hi

    def test_zero_block_signals_nan(self, g, partition):
        zero = SpectralField(g, np.zeros(g.band_shape, complex))
        assert np.isnan(lp.bernstein_ratio(partition, zero, 2, 1))


def test_block_spectrum_rows(g, partition):
    u = rand(g, 18)
    rows = lp.block_spectrum(partition, u, s=1.0)
    assert [r[0] for r in rows] == list(partition.block_range())
    for j, l2, weighted in rows:
        assert weighted == pytest.approx(2.0 ** j * l2, rel=1e-15)

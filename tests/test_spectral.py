"""Tests for grids, transforms, multipliers, derivatives and products."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.fft
from scipy.signal import convolve2d

from qgk.grid import (
    GridSpec,
    RealField,
    SpectralField,
    complete_band,
    hermitian_defect,
    multiplier_table,
)
from qgk import bilinear as bl
from qgk import spectral as sp


def grid(n=16, L=2 * np.pi, dealias="three_halves_padding"):
    return GridSpec(n, L, dealias)


def rand(g, seed=0, hi=None):
    return sp.random_band_field(g, seed, 1.0, 3.0, 1, hi or g.n // 3)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(15, 1.0)
        with pytest.raises(ValueError):
            GridSpec(6, 1.0)
        with pytest.raises(ValueError):
            GridSpec(16, -1.0)
        with pytest.raises(ValueError):
            GridSpec(16, 1.0, "no_such_rule")

    def test_wavevectors_scale(self):
        g = grid(16, L=4.0)
        q = multiplier_table(g).q
        assert q[1, 0] == pytest.approx((2 * np.pi / 4.0) ** 2, rel=1e-15)
        assert q[0, 0] == 0.0


class TestSpectralField:
    def test_rejects_a_full_array(self):
        g = grid(16)
        with pytest.raises(ValueError):
            SpectralField(g, np.zeros(g.shape, complex))
        with pytest.raises(ValueError):
            SpectralField(g, np.zeros((2,) + g.band_shape, complex))

    def test_coeffs_is_the_read_only_completion(self):
        g = grid(16)
        u = rand(g, 5)
        assert np.array_equal(u.coeffs, complete_band(u.band))
        assert hermitian_defect(u.coeffs) == 0.0
        with pytest.raises(ValueError):
            u.coeffs[1, 1] = 0.0
        with pytest.raises(AttributeError):
            u.coeffs = np.zeros(g.shape, complex)

    def test_tables_are_band_blocks(self):
        g = grid(16)
        mt = multiplier_table(g)
        for name in ("k1", "k2", "q", "keep", "mirror", "a", "d", "h", "ixi1", "ixi2",
                     "bilap", "one_minus_lap", "two_thirds"):
            assert getattr(mt, name).shape == g.band_shape, name
        assert np.array_equal(mt.keep[g.n // 2], np.zeros(g.n // 2))
        assert np.all(np.delete(mt.keep, g.n // 2, axis=0) == 1.0)
        assert np.all(mt.mirror[:, 0] == 1.0) and np.all(mt.mirror[:, 1:] == 2.0)


class TestTransforms:
    def test_constant_field_dc_mode(self):
        g = grid()
        c = sp.forward_transform(RealField(g, np.ones(g.shape)))
        assert c.coeffs[0, 0] == pytest.approx(1.0, abs=1e-15)
        off = c.coeffs.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-14

    def test_single_cosine_modes(self):
        g = grid(32)
        x = np.arange(g.n) * g.dx
        samples = np.cos(2 * np.pi * x / g.box_length)[:, None] * np.ones(g.n)[None, :]
        c = sp.forward_transform(RealField(g, samples))
        assert c.coeffs[1, 0] == pytest.approx(0.5, abs=1e-13)
        assert c.coeffs[-1, 0] == pytest.approx(0.5, abs=1e-13)
        rest = c.coeffs.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-13

    def test_round_trip_random(self):
        g = grid(64)
        u = rand(g, 3)
        back = sp.forward_transform(sp.inverse_transform(u))
        err = np.max(np.abs(back.coeffs - u.coeffs)) / np.max(np.abs(u.coeffs))
        assert err < 1e-13

    def test_round_trip_with_nyquist_content(self):
        # sampled data with Nyquist-row content and an empty Nyquist column
        # round-trip exactly
        g = grid(16)
        h = g.n // 2
        rng = np.random.default_rng(7)
        c = np.fft.fft2(rng.standard_normal(g.shape))
        c[:, h] = 0.0
        assert np.max(np.abs(c[h])) > 1.0
        f = RealField(g, np.fft.ifft2(c).real)
        back = sp.inverse_transform(sp.forward_transform(f))
        err = np.max(np.abs(back.samples - f.samples)) / np.max(np.abs(f.samples))
        assert err < 1e-13

    def test_forward_transform_drops_the_nyquist_column(self):
        g = grid(16)
        n, h = g.n, g.n // 2
        raw = np.random.default_rng(8).standard_normal(g.shape)
        full = np.fft.fft2(raw) / (n * n)
        u = sp.forward_transform(RealField(g, raw))
        assert np.max(np.abs(u.band - full[:, :h])) <= 1e-15 * np.max(np.abs(full))
        column = np.zeros(g.shape, complex)
        column[:, h] = full[:, h]
        dropped = np.fft.ifft2(column).real * (n * n)
        assert np.max(np.abs(dropped)) > 0.1
        back = sp.inverse_transform(u).samples
        assert np.max(np.abs(back - (raw - dropped))) <= 1e-13 * np.max(np.abs(raw))

    def test_parseval(self):
        g = grid(32, L=3.0)
        u = rand(g, 4)
        phys = sp.inverse_transform(u)
        quad = g.dx**2 * float(np.sum(phys.samples**2))
        assert quad == pytest.approx(sp.l2_norm(u) ** 2, rel=1e-12)

    def test_nonfinite_rejected(self):
        g = grid()
        samples = np.zeros(g.shape)
        samples[0, 0] = np.inf
        with pytest.raises(ValueError):
            sp.forward_transform(RealField(g, samples))


class TestMultipliers:
    def test_a_d_inverse_pair(self):
        g = grid(32)
        mt = multiplier_table(g)
        assert np.max(np.abs(mt.a * mt.d - 1.0)) < 1e-15
        u = rand(g, 5)
        v = sp.apply_multiplier(sp.apply_multiplier(u, mt.a), mt.d)
        assert np.max(np.abs(v.coeffs - u.coeffs)) / np.max(np.abs(u.coeffs)) < 1e-14

    def test_a_at_origin(self):
        g = grid()
        mt = multiplier_table(g)
        assert mt.a[0, 0] == 1.0
        assert mt.h[0, 0] == 0.0

    def test_h_at_unit_frequency(self):
        # printed symbol at |xi| = 1 evaluates to 2/3
        g = grid(16, L=2 * np.pi)  # frequency unit 1, so |k|=1 has |xi|=1
        mt = multiplier_table(g)
        assert mt.h[1, 0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_h_positive_and_asymptotic(self):
        g = grid(64)
        mt = multiplier_table(g)
        q = mt.q
        off = q > 0
        assert np.all(mt.h[off] > 0)
        big = q > 100.0
        assert np.allclose(mt.h[big] / q[big], 1.0, atol=0.02)

    def test_shape_mismatch(self):
        g = grid()
        u = rand(g)
        with pytest.raises(ValueError):
            sp.apply_multiplier(u, np.ones((4, 4)))

    def test_commutation_with_projection(self):
        g = grid(32)
        mt = multiplier_table(g)
        u = rand(g, 6)
        p1 = sp.project_jn(sp.apply_multiplier(u, mt.h), 9.0)
        p2 = sp.apply_multiplier(sp.project_jn(u, 9.0), mt.h)
        assert np.max(np.abs(p1.coeffs - p2.coeffs)) < 1e-14


class TestDerivatives:
    def test_perp_gradient_divergence_free(self):
        g = grid(64)
        u = rand(g, 7)
        g1, g2 = sp.perp_gradient(u)
        div = sp.divergence(g1, g2)
        assert sp.l2_norm(div) <= 1e-13 * sp.l2_norm(g1)

    def test_perp_dot_gradient_vanishes_pointwise(self):
        g = grid(64)
        u = rand(g, 8)
        g1, g2 = sp.gradient(u)
        p1, p2 = sp.perp_gradient(u)
        a1 = sp.inverse_transform(g1).samples
        a2 = sp.inverse_transform(g2).samples
        b1 = sp.inverse_transform(p1).samples
        b2 = sp.inverse_transform(p2).samples
        dot = a1 * b1 + a2 * b2
        scale = np.max(np.hypot(a1, a2)) * np.max(np.hypot(b1, b2))
        assert np.max(np.abs(dot)) <= 1e-12 * scale

    def test_nyquist_zeroed(self):
        g = grid(16)
        coeffs = np.zeros(g.band_shape, complex)
        coeffs[g.n // 2, 0] = 1.0  # pure Nyquist content
        u = SpectralField(g, coeffs)
        for op in (sp.gradient, sp.perp_gradient):
            for comp in op(u):
                assert np.all(comp.coeffs == 0.0)
        assert np.all(sp.bilaplacian(u).coeffs == 0.0)


class TestProjection:
    def test_full_band_cutoff_is_identity(self):
        g = grid(32)
        u = rand(g, 9)
        n_cut = 2.0 * (g.frequency_unit * g.n / 2) ** 2
        v = sp.project_jn(u, n_cut)
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_idempotent_bitwise(self):
        g = grid(32)
        u = rand(g, 10)
        once = sp.project_jn(u, 7.0)
        twice = sp.project_jn(once, 7.0)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_self_adjoint(self):
        g = grid(32)
        u, v = rand(g, 11), rand(g, 12)
        lhs = sp.inner_product(sp.project_jn(u, 5.0), v)
        rhs = sp.inner_product(u, sp.project_jn(v, 5.0))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_rejects_nonpositive_cut(self):
        g = grid()
        with pytest.raises(ValueError):
            sp.project_jn(rand(g), 0.0)


def brute_force_convolution(u: SpectralField, v: SpectralField) -> np.ndarray:
    """Direct O(n^4) convolution of coefficient arrays, band-truncated."""
    n = u.grid.n
    a = np.fft.fftshift(u.coeffs)
    b = np.fft.fftshift(v.coeffs)
    full = convolve2d(a, b)  # ascending index from -n to n-2
    lo = n // 2  # index of s = -n/2 within the full array
    band = full[lo:lo + n, lo:lo + n]
    out = np.fft.ifftshift(band)
    out[n // 2, :] = 0.0  # products live on the symmetric band
    out[:, n // 2] = 0.0
    return out


class TestDealiasedProduct:
    def test_cos_squared_identity(self):
        g = grid(16)
        u = sp.cosine_field(g, 1, 0, 1.0)
        prod = sp.dealiased_product(u, u)
        # cos^2 = 1/2 + cos(2x)/2
        expected = np.zeros(g.shape, complex)
        expected[0, 0] = 0.5
        expected[2, 0] = 0.25
        expected[-2, 0] = 0.25
        assert np.max(np.abs(prod.coeffs - expected)) < 1e-14

    def test_product_with_constant(self):
        g = grid(16)
        u = rand(g, 13)
        one = SpectralField(g, np.zeros(g.band_shape, complex))
        one.band[0, 0] = 1.0
        prod = sp.dealiased_product(u, one)
        assert np.max(np.abs(prod.coeffs - u.coeffs)) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_convolution(self, seed):
        g = grid(16)
        u = rand(g, 100 + seed, hi=7)
        v = rand(g, 200 + seed, hi=7)
        prod = sp.dealiased_product(u, v)
        ref = brute_force_convolution(u, v)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(prod.coeffs - ref)) <= 1e-12 * scale

    def test_full_band_inputs_match_oracle(self):
        # inputs occupying the whole symmetric band still convolve exactly
        g = grid(16)
        u = rand(g, 300, hi=7)
        v = rand(g, 301, hi=7)
        u.band += rand(g, 302, hi=7).band * 1e-1
        prod = sp.dealiased_product(u, v)
        ref = brute_force_convolution(u, v)
        assert np.max(np.abs(prod.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_bilinear_and_symmetric(self):
        g = grid(16)
        u, v, w = rand(g, 14), rand(g, 15), rand(g, 16)
        left = sp.dealiased_product(
            SpectralField(g, 2.0 * u.band + 3.0 * v.band), w)
        right = SpectralField(
            g, 2.0 * sp.dealiased_product(u, w).band + 3.0 * sp.dealiased_product(v, w).band)
        assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * np.max(np.abs(left.coeffs))
        ab = sp.dealiased_product(u, v)
        ba = sp.dealiased_product(v, u)
        assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-13 * np.max(np.abs(ab.coeffs))

    def test_grid_mismatch(self):
        u = rand(grid(16), 17)
        v = rand(grid(32), 18)
        with pytest.raises(ValueError):
            sp.dealiased_product(u, v)

    def test_hermitian_preserved(self):
        g = grid(32)
        prod = sp.dealiased_product(rand(g, 19), rand(g, 20))
        assert hermitian_defect(prod.coeffs) < 1e-15


def full_band_field(g: GridSpec, seed: int) -> SpectralField:
    """Seeded real field with O(1) coefficients on the whole symmetric band."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    flip = (-np.arange(g.n)) % g.n
    c = 0.5 * (c + np.conj(c[np.ix_(flip, flip)]))
    c[g.n // 2, :] = c[:, g.n // 2] = 0.0
    return SpectralField(g, c[:, :g.n // 2])


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


class TestBandKernel:
    """The pruned padded product against the direct convolution, on grids
    with and without 3 | n and with the whole band occupied."""

    @pytest.mark.parametrize("n", [8, 12, 18, 24])
    def test_products_match_direct_convolution(self, n):
        g = grid(n, L=3.0)
        u, v, w, z = (full_band_field(g, 40 + n + i) for i in range(4))
        ref = brute_force_convolution(u, v)
        assert relative_error(sp.dealiased_product(u, v).coeffs, ref) <= 1e-14
        both = sp.product_sum([(u, v), (w, z)]).coeffs
        assert relative_error(both, ref + brute_force_convolution(w, z)) <= 1e-14

    @pytest.mark.parametrize("n", [8, 12, 18, 24])
    def test_transport_matches_direct_divergence_route(self, n):
        g = grid(n, L=3.0)
        rho, zeta = full_band_field(g, 60 + n), full_band_field(g, 70 + n)
        u1, u2 = bl.velocity(rho)
        b = sp.bilaplacian(zeta)
        h = g.n // 2
        ref = sp.divergence(SpectralField(g, brute_force_convolution(u1, b)[:, :h]),
                            SpectralField(g, brute_force_convolution(u2, b)[:, :h])).coeffs
        assert relative_error(bl.transport(rho, zeta).coeffs, ref) <= 1e-14

    @pytest.mark.parametrize("n", [8, 12, 18, 24])
    def test_two_thirds_rule_aliases_only_when_three_divides_n(self, n):
        g = grid(n, dealias="two_thirds_truncation")
        u, v = full_band_field(g, 80 + n), full_band_field(g, 90 + n)
        k1 = np.fft.fftfreq(n, 1.0 / n)
        cut = (np.abs(k1)[:, None] <= n // 3) & (np.abs(k1)[None, :] <= n // 3)
        block = cut[:, :n // 2]
        ut, vt = SpectralField(g, u.band * block), SpectralField(g, v.band * block)
        exact = brute_force_convolution(ut, vt) * cut
        err = relative_error(sp.dealiased_product(u, v).coeffs, exact)
        if n % 3 == 0:
            assert err > 1e-2  # the edge shell |k_i| = n/3 receives aliases
        else:
            assert err <= 1e-14

    def test_no_state_carried_between_calls(self):
        # 256: the pair threads' held buffers carry nothing either
        for n in (24, 256):
            g = grid(n)
            a, b = full_band_field(g, 1), full_band_field(g, 2)
            first = bl.transport(a, a)
            kept = first.band.copy()
            bl.transport(b, b)
            third = bl.transport(a, a)
            assert np.array_equal(third.band, kept)
            assert np.array_equal(first.band, kept)
            assert not np.shares_memory(first.band, third.band)


def scipy_band_samples(block, m):
    """The band kernel's inverse passes as scipy.fft ran them, the reference
    the numpy.fft route must reproduce bit for bit."""
    h = block.shape[-1]
    pad = np.zeros(block.shape[:-2] + (m, m // 2 + 1), dtype=complex)
    cols = pad[..., :h]
    cols[..., :h, :] = block[..., :h, :]
    cols[..., m - h + 1:, :] = block[..., h + 1:, :]
    cols[...] = scipy.fft.ifft2(cols, axes=(-2,), norm="forward", overwrite_x=True, workers=1)
    return scipy.fft.irfft2(pad, s=(m,), axes=(-1,), norm="forward", workers=1)


def scipy_band_product(g, pairs):
    n, h = g.n, g.n // 2
    mask = None if g.dealias == "three_halves_padding" else multiplier_table(g).two_thirds
    m = n if mask is not None else 3 * n // 2
    acc = None
    for u, v in pairs:
        if mask is not None:
            u, v = u * mask, v * mask
        term = scipy_band_samples(u, m) * scipy_band_samples(v, m)
        acc = term if acc is None else acc + term
    half = scipy.fft.rfft2(acc, axes=(-1,), norm="forward", workers=1)[..., :h]
    band = scipy.fft.fft2(half, axes=(-2,), norm="forward", overwrite_x=True, workers=1)
    out = np.zeros(band.shape[:-2] + (n, h), dtype=complex)
    out[..., :h, :] = band[..., :h, :]
    out[..., h + 1:, :] = band[..., m - h + 1:, :]
    if mask is not None:
        out *= mask
    return out


def scipy_transport(rho, zeta, g):
    mt = multiplier_table(g)
    ixi1, ixi2 = mt.ixi1, mt.ixi2
    a = rho * mt.one_minus_lap
    b = zeta * mt.bilap
    lam = scipy_band_product(g, ((-a * ixi2, b * ixi1), (a * ixi1, b * ixi2)))
    lam[..., 0, 0] = 0.0
    return lam


class TestNumpyRoute:
    """The band kernel runs on numpy.fft with in-place axis -2 passes; it
    must equal the scipy.fft kernel bit for bit.  A pass
    whose ``out=`` numpy ignored would leave the band columns untransformed."""

    CASES = [(24, "two_thirds_truncation", ()), (48, "three_halves_padding", ()),
             (64, "three_halves_padding", ()), (256, "three_halves_padding", ()),
             (64, "three_halves_padding", (2,))]

    @pytest.mark.parametrize("n, dealias, stack", CASES)
    def test_bitwise_equal_to_scipy_kernel(self, n, dealias, stack):
        g = grid(n, L=5.0, dealias=dealias)
        h = n // 2
        seeds = np.arange(2 * int(np.prod(stack))).reshape(2, -1) + 7 * n
        rho, zeta = (np.stack([full_band_field(g, int(k)).band for k in row])
                     .reshape(stack + (n, h)) for row in seeds)
        for m in (n, 3 * n // 2):
            assert np.array_equal(sp.band_samples(rho, m), scipy_band_samples(rho, m))
        pairs = ((rho, zeta), (zeta, rho * 0.5))
        assert np.array_equal(sp.band_product(g, pairs), scipy_band_product(g, pairs))
        assert np.array_equal(bl.transport(rho, zeta, g), scipy_transport(rho, zeta, g))

    # one pair is a dealiased product; five are a paraproduct's or a remainder's
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("n, dealias, stack", [(24, "two_thirds_truncation", ()),
                                                   (64, "three_halves_padding", (2,)),
                                                   (128, "three_halves_padding", ())])
    def test_any_pair_count(self, n, dealias, stack, count):
        g = grid(n, L=5.0, dealias=dealias)
        fields = [stacked_fields(g, 11 * n + 3 * k, stack) for k in range(count + 1)]
        pairs = list(zip(fields[:-1], fields[1:]))
        assert np.array_equal(sp.band_product(g, pairs), scipy_band_product(g, pairs))

    def test_stack_shapes_in_turn_on_one_pool(self, pair_pool):
        g = grid(64, L=5.0)
        for stack in ((), (2,), ()):
            rho, zeta = stacked_fields(g, 1, stack), stacked_fields(g, 9, stack)
            pairs = ((rho, zeta), (zeta, rho * 0.5))
            assert np.array_equal(sp.band_product(g, pairs), scipy_band_product(g, pairs))
            assert pair_pool.key == stack + (96, 32)


@pytest.fixture
def pair_pool(monkeypatch):
    """A fresh pair pool in place of the process's, shut down afterwards."""
    pool = sp._PairPool()
    monkeypatch.setattr(sp, "_PAIRS", pool)
    yield pool
    if pool.executor is not None:
        pool.executor.shutdown(wait=True)


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def pair_threads():
    return [t for t in threading.enumerate() if t.name.startswith("qgk-pair")]


def stacked_fields(g, seed, stack=()):
    k = int(np.prod(stack))
    return np.stack([full_band_field(g, seed + i).band for i in range(k)]).reshape(
        stack + (g.n, g.n // 2))


class TestPairPool:
    """Two-pair products on large grids split their work between the calling
    thread and one worker; the result is the calling thread's alone to the
    bit, whatever the core count, and the scipy kernel's."""

    # n = 262 under 3/2 padding splits odd halves: m = 393 rows (196/197)
    # and h = 131 band columns (65/66)
    CASES = [(128, "three_halves_padding", ()),
             (256, "three_halves_padding", ()), (256, "three_halves_padding", (2,)),
             (256, "three_halves_padding", (3,)), (258, "two_thirds_truncation", ()),
             (262, "three_halves_padding", ())]

    @pytest.mark.parametrize("n, dealias, stack", CASES)
    def test_pooled_equals_serial(self, n, dealias, stack, pair_pool, monkeypatch):
        g = grid(n, L=5.0, dealias=dealias)
        rho, zeta = stacked_fields(g, 3 * n, stack), stacked_fields(g, 5 * n, stack)
        pairs = ((rho, zeta), (zeta, rho * 0.5))
        set_cpus(monkeypatch, 1)
        product, lam = sp.band_product(g, pairs), bl.transport(rho, zeta, g)
        assert pair_pool.executor is None
        assert np.array_equal(product, scipy_band_product(g, pairs))
        assert np.array_equal(lam, scipy_transport(rho, zeta, g))
        set_cpus(monkeypatch, 2)
        for _ in range(20):
            assert np.array_equal(sp.band_product(g, pairs), product)
            assert np.array_equal(bl.transport(rho, zeta, g), lam)
        assert pair_pool.executor is not None

    def test_one_cpu_takes_the_serial_path(self, pair_pool, monkeypatch):
        set_cpus(monkeypatch, 1)
        g = grid(256)
        a = full_band_field(g, 1)
        before = len(pair_threads())
        bl.transport(a, a)
        # the same kernel without its worker: no thread, buffers held
        assert pair_pool.executor is None and len(pair_threads()) == before
        assert pair_pool.key == (384, 128)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_buffers_are_keyed_by_band_width(self, cpus, pair_pool, monkeypatch):
        # n = 128 under 3/2 padding and n = 192 under 2/3 truncation share
        # m = 192 with h = 64 and 96: the wider product's columns 64-95 of
        # the c2r input must not reach the narrower one
        set_cpus(monkeypatch, cpus)
        narrow, wide = grid(128, L=5.0), grid(192, L=5.0, dealias="two_thirds_truncation")
        a, b = full_band_field(narrow, 1).band, full_band_field(wide, 2).band
        first = bl.transport(a, a, narrow)
        bl.transport(b, b, wide)
        assert np.array_equal(bl.transport(a, a, narrow), first)
        assert np.array_equal(first, scipy_transport(a, a, narrow))

    def test_pool_is_lazy_and_holds_one_thread(self, pair_pool, monkeypatch):
        set_cpus(monkeypatch, 2)
        small, large = full_band_field(grid(64), 1), full_band_field(grid(256), 2)
        bl.transport(small, small)
        sp.dealiased_product(large, large)
        assert pair_pool.executor is None  # below the size gate, and one pair
        before = len(pair_threads())
        for _ in range(20):
            bl.transport(large, large)
        # the calling thread computes the other share
        assert pair_pool.executor._max_workers == 1
        assert len(pair_threads()) - before <= 1
        # importing qgk imports no thread pool
        code = "import sys, qgk.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                              timeout=120)
        assert proc.stdout.split() == ["False"], proc.stderr

    def test_buffers_hold_one_shape(self, pair_pool, monkeypatch):
        set_cpus(monkeypatch, 2)
        for n in (256, 258, 260, 262, 264):
            g = grid(n)
            for stack in ((), (1,), (2,), (3,)):
                held = [weakref.ref(buf) for bufs in pair_pool.buffers for buf in bufs]
                if pair_pool.forward is not None:
                    held.append(weakref.ref(pair_pool.forward))
                a = stacked_fields(g, n, stack)
                bl.transport(a, a, g)
                # the previous shape's buffers are gone
                assert all(ref() is None for ref in held)
        m, h = 3 * 264 // 2, 264 // 2
        assert pair_pool.key == (3, m, h)
        assert [buf.shape for buf in pair_pool.buffers[0]] == [
            (3, m, m // 2 + 1), (3, m, m), (3, m, m)]
        assert len(pair_pool.buffers) == 2
        assert pair_pool.forward.shape == (3, m, m // 2 + 1)

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_an_error_in_either_share_waits_for_the_other(self, failing, pair_pool,
                                                          monkeypatch):
        g = grid(256)
        a = full_band_field(g, 4)
        set_cpus(monkeypatch, 1)
        expected = bl.transport(a, a).band
        set_cpus(monkeypatch, 2)
        bl.transport(a, a)  # the worker is started and the buffers are made
        pair_term, finished = sp._pair_term, []

        def failing_pair_term(*args):
            if threading.current_thread().name.startswith("qgk-pair") == (failing == "worker"):
                raise RuntimeError(f"{failing} share failed")
            time.sleep(0.2)  # the other share ends well after the error
            finished.append(pair_term(*args))
            return finished[-1]

        def call():
            try:
                bl.transport(a, a)
            except RuntimeError as exc:
                # the other side's job was done before the error reached the caller
                raised.append((str(exc), len(finished)))

        monkeypatch.setattr(sp, "_pair_term", failing_pair_term)
        raised = []
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        hung = caller.is_alive()
        if hung:
            pair_pool.barrier.abort()  # frees the stuck share: the test fails, not hangs
        assert not hung, "the pooled product hung after an error"
        assert raised == [(f"{failing} share failed", 1)]
        assert not pair_pool.lock.locked()
        monkeypatch.setattr(sp, "_pair_term", pair_term)
        assert np.array_equal(bl.transport(a, a).band, expected)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # the process's own pool, whose threads a forked child does not have
        set_cpus(monkeypatch, 2)
        g = grid(256)
        a = full_band_field(g, 3)
        expected = bl.transport(a, a).band
        assert sp._PAIRS.executor is not None

        def child():
            os._exit(0 if np.array_equal(bl.transport(a, a).band, expected) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
        assert proc.exitcode == 0

    def test_concurrent_callers_keep_their_bits(self, pair_pool, monkeypatch):
        # more callers than cores on one pool: the lock keeps each product
        # on the buffers alone
        g = grid(256)
        fields = [full_band_field(g, 20 + i) for i in range(4)]
        set_cpus(monkeypatch, 1)
        expected = [bl.transport(f, f).band for f in fields]
        set_cpus(monkeypatch, 2)
        results = [[] for _ in fields]

        def caller(i):
            for _ in range(5):
                results[i].append(bl.transport(fields[i], fields[i]).band)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(fields))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, ref in zip(results, expected):
            assert len(got) == 5 and all(np.array_equal(r, ref) for r in got)


def sweep_grids(seed=16, count=16):
    """Seeded even n in [8, 96], half of them multiples of 6 (3 | n), each
    with a box length in [1, 10)."""
    rng = np.random.default_rng(seed)
    ns = np.concatenate([2 * rng.integers(4, 49, count - count // 2),
                         6 * rng.integers(2, 17, count // 2)])
    return [(int(n), float(rng.uniform(1.0, 10.0))) for n in ns]


class TestKernelSweep:
    """Seeded sweeps of the band kernel against the scipy kernel, bit for
    bit: random grids, both dealias policies, stacks of fields, one, two and
    five pairs, the transport, and samples of a block and of a block with
    its symbol."""

    @pytest.mark.parametrize("stack", [(), (2,), (3,)])
    @pytest.mark.parametrize("dealias", ["three_halves_padding", "two_thirds_truncation"])
    def test_seeded_grids(self, dealias, stack):
        assert any(n % 3 == 0 for n, _ in sweep_grids())
        for n, length in sweep_grids():
            g = grid(n, L=length, dealias=dealias)
            fields = [stacked_fields(g, 13 * n + 7 * k, stack) for k in range(6)]
            for count in (1, 2, 5):
                pairs = list(zip(fields[:count], fields[1:count + 1]))
                assert np.array_equal(sp.band_product(g, pairs), scipy_band_product(g, pairs)), \
                    (n, count)
            assert np.array_equal(bl.transport(fields[0], fields[1], g),
                                  scipy_transport(fields[0], fields[1], g)), n
            m = 3 * n // 2
            assert np.array_equal(sp.band_samples(fields[2], m), scipy_band_samples(fields[2], m))
            ixi1 = multiplier_table(g).ixi1
            assert np.array_equal(sp.band_samples((fields[3], ixi1), m),
                                  scipy_band_samples(fields[3] * ixi1, m))

    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
    @pytest.mark.parametrize("n", [128, 262])
    def test_pool_sizes(self, n, cpus, pair_pool, monkeypatch):
        set_cpus(monkeypatch, cpus)
        g = grid(n, L=5.0)
        fields = [stacked_fields(g, 17 * n + k) for k in range(6)]
        for count in (1, 2, 5):
            pairs = list(zip(fields[:count], fields[1:count + 1]))
            assert np.array_equal(sp.band_product(g, pairs), scipy_band_product(g, pairs)), count
        assert np.array_equal(bl.transport(fields[0], fields[1], g),
                              scipy_transport(fields[0], fields[1], g))
        assert (pair_pool.executor is not None) == (cpus == 2)


class RecordingFFT:
    """Stands in for numpy.fft: records each name looked up and each call."""

    def __init__(self):
        self.looked_up, self.calls = [], []

    def __getattr__(self, name):
        self.looked_up.append(name)
        fn = getattr(np.fft, name)

        def call(*args, **kwargs):
            self.calls.append(name)
            return fn(*args, **kwargs)

        return call


class TestKernelCalls:
    """Every pass of the band kernel is one 1-D numpy.fft call; a pass that
    slips back to an n-D wrapper shows up here."""

    ONE_D = {"fft", "ifft", "rfft", "irfft"}

    def test_transport_and_samples_make_1d_calls(self, pair_pool, monkeypatch):
        g = grid(64)
        a = full_band_field(g, 1)
        proxy = RecordingFFT()
        monkeypatch.setattr(sp, "sfft", proxy)
        bl.transport(a, a)
        # each of the four fields: a column pass and a c2r pass; then the
        # r2c pass and the column pass of the sum
        assert proxy.calls == ["ifft", "irfft"] * 4 + ["rfft", "fft"]
        sp.band_samples(a.band, 96)
        assert proxy.calls[10:] == ["ifft", "irfft"]
        assert set(proxy.looked_up) <= self.ONE_D

    def test_pooled_transport_makes_1d_calls(self, pair_pool, monkeypatch):
        set_cpus(monkeypatch, 2)
        g = grid(128)
        a = full_band_field(g, 2)
        proxy = RecordingFFT()
        monkeypatch.setattr(sp, "sfft", proxy)
        bl.transport(a, a)
        # each thread makes its pair's four calls and half of each forward pass
        assert sorted(proxy.calls) == sorted(["ifft", "irfft"] * 4 + ["rfft", "fft"] * 2)
        assert set(proxy.looked_up) <= self.ONE_D


class TestNormsAndInnerProducts:
    def test_cosine_l2_norm(self):
        g = grid(32, L=3.5)
        u = sp.cosine_field(g, 1, 0, 1.0)
        assert sp.inner_product(u, u) == pytest.approx(3.5**2 / 2.0, rel=1e-14)

    def test_sobolev_zero_is_l2(self):
        g = grid(32)
        u = rand(g, 21)
        assert sp.sobolev_norm(u, 0.0) == pytest.approx(
            np.sqrt(sp.inner_product(u, u)), rel=1e-14)

    def test_cosine_h1_norm(self):
        g = grid(32, L=2 * np.pi)
        u = sp.cosine_field(g, 1, 0, 1.0)
        assert sp.sobolev_norm(u, 1.0) ** 2 == pytest.approx(4 * np.pi**2, rel=1e-14)


class TestRandomFields:
    def test_deterministic_in_seed(self):
        g = grid(32)
        a = sp.random_band_field(g, 42, 0.7, 3.0, 2, 9)
        b = sp.random_band_field(g, 42, 0.7, 3.0, 2, 9)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_amplitude_normalization(self):
        g = grid(32)
        u = sp.random_band_field(g, 1, 0.37, 2.0, 1, 9)
        assert sp.sobolev_norm(u, 2.0) == pytest.approx(0.37, rel=1e-13)

    def test_band_limits_respected(self):
        g = grid(32)
        u = sp.random_band_field(g, 2, 1.0, 3.0, 3, 8)
        k1, k2 = multiplier_table(g).k1, multiplier_table(g).k2
        kk = np.hypot(k1, k2)
        outside = (kk < 3) | (kk > 8)
        assert np.all(u.band[outside] == 0.0)

    def test_hermitian_exact(self):
        g = grid(48)
        u = sp.random_exponential_field(g, 3, 1.0, 0.4)
        assert hermitian_defect(u.coeffs) == 0.0

    def test_nyquist_free(self):
        g = grid(16)
        u = sp.random_band_field(g, 4, 1.0, 3.0, 1, 8)
        assert np.all(u.coeffs[g.n // 2] == 0.0)
        assert np.all(u.coeffs[:, g.n // 2] == 0.0)


class TestOperatorAlgebra:
    def test_multipliers_commute_with_each_other(self):
        g = grid(32)
        mt = multiplier_table(g)
        u = rand(g, 30)
        ab = sp.apply_multiplier(sp.apply_multiplier(u, mt.h), mt.d)
        ba = sp.apply_multiplier(sp.apply_multiplier(u, mt.d), mt.h)
        assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-14 * np.max(np.abs(u.coeffs))

    def test_composite_order_independence_with_projection(self):
        g = grid(32)
        mt = multiplier_table(g)
        u = rand(g, 31)
        orders = [
            sp.project_jn(sp.apply_multiplier(sp.apply_multiplier(u, mt.a), mt.h), 5.0),
            sp.apply_multiplier(sp.project_jn(sp.apply_multiplier(u, mt.h), 5.0), mt.a),
            sp.apply_multiplier(sp.apply_multiplier(sp.project_jn(u, 5.0), mt.a), mt.h),
        ]
        base = orders[0].coeffs
        for other in orders[1:]:
            assert np.max(np.abs(other.coeffs - base)) <= 1e-14 * np.max(np.abs(base))


def test_fft_workers_env(monkeypatch):
    monkeypatch.setenv("QGK_THREADS", "3")
    assert sp.fft_workers() == 3
    monkeypatch.setenv("QGK_THREADS", "0")
    assert sp.fft_workers() >= 1
    monkeypatch.setenv("QGK_THREADS", "junk")
    assert sp.fft_workers() == 1

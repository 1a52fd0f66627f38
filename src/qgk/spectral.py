"""Transforms, Fourier multipliers, derivatives, projections and dealiased
products on the periodic grid.

All operations are pure functions of their inputs, and every one of them
reads and returns band blocks coeffs[:, :n/2] (see qgk.grid): operators
multiply the block by the grid's symbol tables, and norms and inner products
weight each block cell by the table ``mirror``, so they equal their sums
over the whole spectrum.  Products are evaluated pseudo-spectrally; under
the default 3/2 zero-padding rule the returned coefficients on the symmetric
band equal the exact convolution of the inputs, which is what makes the
discrete integration-by-parts identities of the transport operator hold to
round-off.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .grid import (
    THREE_HALVES,
    GridSpec,
    RealField,
    SpectralField,
    multiplier_table,
    require_same_grid,
)

# every FFT is looked up on this attribute, which perfbench/tracing.py
# replaces to time the 2-D calls (the band kernel makes only 1-D calls)
sfft = np.fft


def fft_workers() -> int:
    """The FFT worker count the QGK_THREADS environment variable asks for
    (0 = one per core, unparsable = 1).  No qgk code reads it: each transform
    is one numpy.fft call on one thread.  The only parallel work is
    band_product's two threads and compare_runs' forked child, each turned
    on by its own gate.  The benchmark records the value with its host."""
    try:
        val = int(os.environ.get("QGK_THREADS", "1"))
    except ValueError:
        return 1
    return (os.cpu_count() or 1) if val == 0 else max(1, val)


# ---------------------------------------------------------------------------
# transforms


def forward_transform(f: RealField) -> SpectralField:
    """Real samples -> Fourier-series coefficients (forward divides by n^2).

    The band block keeps no Nyquist column, so whatever the samples hold
    there is dropped."""
    if not np.all(np.isfinite(f.samples)):
        raise ValueError("forward_transform: input samples contain non-finite values")
    return SpectralField(f.grid, sfft.rfft2(f.samples, norm="forward")[:, :f.grid.n // 2])


def inverse_transform(u: SpectralField) -> RealField:
    """Fourier-series coefficients -> samples at the grid points (the c2r
    input is the band block and a zero Nyquist column)."""
    half_spectrum = np.pad(u.band, ((0, 0), (0, 1)))
    return RealField(u.grid, sfft.irfft2(half_spectrum, s=u.grid.shape, norm="forward"))


# ---------------------------------------------------------------------------
# diagonal operators


def apply_multiplier(u: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply coefficients mode-wise by a real symbol table."""
    symbol = np.asarray(symbol)
    if symbol.shape != u.grid.band_shape:
        raise ValueError(f"symbol shape {symbol.shape} does not match the band block "
                         f"{u.grid.band_shape}")
    return SpectralField(u.grid, u.band * symbol)


def gradient(u: SpectralField) -> tuple[SpectralField, SpectralField]:
    mt = multiplier_table(u.grid)
    return (
        SpectralField(u.grid, u.band * mt.ixi1),
        SpectralField(u.grid, u.band * mt.ixi2),
    )


def perp_gradient(u: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Rotated gradient (-d2 u, d1 u); divergence-free mode by mode."""
    mt = multiplier_table(u.grid)
    return (
        SpectralField(u.grid, -u.band * mt.ixi2),
        SpectralField(u.grid, u.band * mt.ixi1),
    )


def divergence(u1: SpectralField, u2: SpectralField) -> SpectralField:
    grid = require_same_grid(u1, u2)
    mt = multiplier_table(grid)
    return SpectralField(grid, u1.band * mt.ixi1 + u2.band * mt.ixi2)


def bilaplacian(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, u.band * multiplier_table(u.grid).bilap)


def one_minus_laplacian(u: SpectralField) -> SpectralField:
    """(Id - Delta) u.  Not a derivative: keeps whatever band u has."""
    return SpectralField(u.grid, u.band * multiplier_table(u.grid).one_minus_lap)


def project_jn(u: SpectralField, n_cut: float) -> SpectralField:
    """Sharp Galerkin cutoff: zero every coefficient with |xi|^2 > n_cut."""
    if not n_cut > 0:
        raise ValueError(f"n_cut must be positive, got {n_cut!r}")
    mask = (multiplier_table(u.grid).q <= float(n_cut)).astype(float)
    return SpectralField(u.grid, u.band * mask)


def sanitize_band(u: SpectralField) -> SpectralField:
    """Zero the Nyquist cells, restricting u to the symmetric band."""
    return SpectralField(u.grid, u.band * multiplier_table(u.grid).keep)


# ---------------------------------------------------------------------------
# inner products and norms


def inner_product(u: SpectralField, v: SpectralField) -> float:
    """L^2(torus) pairing via Parseval."""
    grid = require_same_grid(u, v)
    L2 = grid.box_length * grid.box_length
    return L2 * float(np.real(np.vdot(v.band, multiplier_table(grid).mirror * u.band)))


def weighted_l2(u: SpectralField, weight: np.ndarray) -> float:
    """sqrt(L^2 sum weight |c|^2) over the whole spectrum, for a nonnegative
    symbol table."""
    L2 = u.grid.box_length ** 2
    absq = u.band.real ** 2 + u.band.imag ** 2
    val = L2 * float(np.sum(multiplier_table(u.grid).mirror * weight * absq))
    return float(np.sqrt(max(val, 0.0)))


def l2_norm(u: SpectralField) -> float:
    return weighted_l2(u, 1.0)


def sobolev_norm(u: SpectralField, s: float) -> float:
    """H^s norm, (sum (1+|xi|^2)^s |c|^2 L^2)^(1/2)."""
    return weighted_l2(u, (1.0 + multiplier_table(u.grid).q) ** float(s))


# ---------------------------------------------------------------------------
# dealiased products

# Products take fields as they are: a band block, or a (block, symbol) pair.
# The kernel ignores each field's Nyquist row, so callers need not clear it,
# and writes the product's as zero.  It multiplies the symbol, then the
# 2/3-rule mask, into the held buffer that the field's samples fill next,
# and copies the other band rows from there into the held c2r input, so no
# product allocates a temporary.  Any leading axes are a stack of fields,
# transformed slice by slice.  Products embed the blocks in an m x m grid,
# multiply pointwise and truncate back: under the 3/2 rule m = 3n/2, so
# aliases of any product mode |s| <= n - 2 miss the band and the result is
# the exact convolution; under 2/3 truncation m = n, inputs and output cut to
# |k_i| <= n//3.  Every pass is one 1-D numpy.fft call over one axis, the
# axis -2 passes cover only the n/2 band columns, and norm="forward" never rescales.


# Two-pair products (a transport) on grids with n >= POOL_MIN_N split their
# work between the calling thread and one worker thread when the process may
# run on two CPUs; numpy's FFT and ufunc loops release the GIL.  Each thread
# fills its own pair's c2r inputs, symbols included, and computes that pair's
# term, then runs the add, the r2c pass and the axis -2 pass on half of the
# rows and of the band columns.  With the worker, fresh 128^2 and 256^2 runs
# were faster and a warm 64^2 step slower, because handing work to a thread
# costs more than the overlap saves (BENCH_13.json).
POOL_MIN_N = 128


def _field(field, mask) -> tuple:
    """A block or a pair (block, symbol) as (block, (symbol, mask)), less
    the tables that are None."""
    block, symbol = field if isinstance(field, tuple) else (field, None)
    return block, tuple(table for table in (symbol, mask) if table is not None)


def _samples(field, pad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out (..., m, m) <- the samples of ``field`` (as _field makes it) on
    the m x m grid, through the c2r input pad (..., m, m/2 + 1), which must
    be zero outside the band's rows and columns.  The block times its
    tables lands first in the contiguous out: numpy's complex multiply into
    pad's strided rows takes longer than into out and a copy."""
    block, tables = field
    m, h = out.shape[-1], block.shape[-1]
    if tables:
        landing = out.reshape(-1)[:2 * block.size].view(complex).reshape(block.shape)
        block = np.multiply(block, tables[0], out=landing)
        for table in tables[1:]:
            np.multiply(landing, table, out=landing)
    cols = pad[..., :h]
    cols[..., :h, :] = block[..., :h, :]
    cols[..., m - h + 1:, :] = block[..., h + 1:, :]
    # the axis -2 pass runs in place on the n/2 band columns only; the c2r
    # input has all m/2 + 1 columns, so the c2r pass pads nothing
    sfft.ifft(cols, axis=-2, norm="forward", out=cols)
    return sfft.irfft(pad, n=m, axis=-1, norm="forward", out=out)


def band_samples(field, m: int) -> np.ndarray:
    """Samples on the m x m grid (m >= n) of the fields with band blocks
    ``field``, or of block * symbol for a pair (block, symbol)."""
    field = _field(field, None)
    stack = field[0].shape[:-2]
    pad = np.zeros(stack + (m, m // 2 + 1), dtype=complex)
    return _samples(field, pad, np.empty(stack + (m, m)))


def _pair_term(u, v, pad, samples, scratch) -> np.ndarray:
    """samples <- band_samples(u, m) * band_samples(v, m), bit for bit, for
    fields u, v as _field makes them, with pad as both c2r inputs and v's
    samples made in scratch."""
    m, h = samples.shape[-1], u[0].shape[-1]
    # each column pass fills the rows between the band's, which the next
    # c2r input needs zero
    pad[..., h:m - h + 1, :h] = 0.0
    _samples(u, pad, samples)
    pad[..., h:m - h + 1, :h] = 0.0
    samples *= _samples(v, pad, scratch)
    return samples


def _share(pair, buffers, acc, term, forward, rows: slice, cols: slice, barrier) -> None:
    """One thread's share of a pooled product: its pair's term into its own
    buffers; once both terms are made, and with them every c2r pass that
    reads forward, acc <- acc + term and the r2c pass into forward on
    ``rows``; once every row is done, the axis -2 pass of forward in place
    on ``cols``."""
    try:
        _pair_term(*pair, *buffers)
        barrier.wait()
        part = np.add(acc[..., rows, :], term[..., rows, :], out=acc[..., rows, :])
        sfft.rfft(part, axis=-1, norm="forward", out=forward[..., rows, :])
        barrier.wait()
        part = forward[..., cols]
        sfft.fft(part, axis=-2, norm="forward", out=part)
    except BaseException:
        # the other thread stops at its next wait instead of waiting for ever
        barrier.abort()
        raise


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where it has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _PairPool:
    """The band kernel's held buffers, and the worker thread that takes half
    of a pooled product.  Each of two sides owns a c2r input, a samples
    array and a scratch, and the fill of a field's symbols lands in the
    samples array or scratch that its c2r pass writes next, so a side needs
    no fourth buffer.  The forward pass runs in side 0's c2r input once its
    last c2r pass is done, and the next product zeroes its columns past h
    before the first fill.  The buffers are held for one stack shape, m and
    band width h (the c2r inputs must be zero past column h) and replaced
    when any changes.  The worker starts with the first pooled product, so
    importing qgk starts none.  Callers hold ``lock`` until they have read
    the forward pass."""

    def __init__(self):
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(2)
        self.executor = None
        self.key = None
        self.buffers = ()

    def forward_pass(self, pairs, m: int, h: int, pooled: bool) -> np.ndarray:
        """The first h columns of side 0's c2r input, holding the 2-D forward
        transform of the sum of the pairs' sample products.  Unpooled, later
        pairs' terms are made in side 1's samples and added in pair order."""
        key = pairs[0][0][0].shape[:-2] + (m, h)
        if key != self.key:
            # free the old key's buffers before making new ones
            self.buffers = ()
            stack = key[:-2]
            self.buffers = tuple(
                (np.zeros(stack + (m, m // 2 + 1), dtype=complex), np.empty(stack + (m, m)),
                 np.empty(stack + (m, m)))
                for _ in range(2))
            self.key = key
        mine, theirs = self.buffers
        forward = mine[0]
        # the last forward pass left its r2c output past column h
        forward[..., h:] = 0.0
        if not pooled:
            acc = _pair_term(*pairs[0], *mine)
            for u, v in pairs[1:]:
                np.add(acc, _pair_term(u, v, mine[0], theirs[1], mine[2]), out=acc)
            sfft.rfft(acc, axis=-1, norm="forward", out=forward)
            band = forward[..., :h]
            sfft.fft(band, axis=-2, norm="forward", out=band)
            return band
        from concurrent import futures

        if self.executor is None:
            self.executor = futures.ThreadPoolExecutor(max_workers=1,
                                                       thread_name_prefix="qgk-pair")
        shared = (mine[1], theirs[1], forward)
        # the worker runs in a copy of the caller's context, numpy's error state included
        job = self.executor.submit(contextvars.copy_context().run, _share, pairs[1], theirs,
                                   *shared, slice(m // 2, m), slice(h // 2, h), self.barrier)
        try:
            _share(pairs[0], mine, *shared, slice(0, m // 2), slice(0, h // 2), self.barrier)
        except threading.BrokenBarrierError:
            pass  # the worker's error broke the barrier; job.result() raises it
        finally:
            # the worker is done with the buffers before any error is raised
            futures.wait([job])
            self.barrier.reset()
        job.result()
        return forward[..., :h]


_PAIRS = _PairPool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads and may inherit the
    # lock held: it starts from an empty pool
    os.register_at_fork(after_in_child=_PAIRS.__init__)


def _band_block(band: np.ndarray, n: int, mask) -> np.ndarray:
    """The (n, n/2) block of a product from the first n/2 columns ``band`` of
    its forward transform on the m x m grid."""
    h, m = n // 2, band.shape[-2]
    out = np.empty(band.shape[:-2] + (n, h), dtype=complex)
    out[..., :h, :] = band[..., :h, :]
    out[..., h, :] = 0.0
    out[..., h + 1:, :] = band[..., m - h + 1:, :]
    if mask is not None:
        out *= mask
    return out


def band_product(grid: GridSpec, pairs) -> np.ndarray:
    """Band block of sum_i dealias(u_i * v_i) under the grid's dealias
    policy, from each pair's fields (u_i, v_i): band blocks, or pairs
    (block, symbol) whose symbol table the kernel multiplies into the block.

    Every product runs on the kernel's held buffers.  Two pairs on a grid
    with n >= POOL_MIN_N, in a process that may run on two CPUs, split
    between the calling thread and one worker thread, each computing one
    pair's term and half of each forward pass.  Every transform, add and
    product is the same on the same data either way, so the result is the
    same to the bit on any core count."""
    n, h = grid.n, grid.n // 2
    mask = None if grid.dealias == THREE_HALVES else multiplier_table(grid).two_thirds
    m = n if mask is not None else 3 * n // 2
    pairs = [(_field(u, mask), _field(v, mask)) for u, v in pairs]
    pooled = len(pairs) == 2 and n >= POOL_MIN_N and _usable_cpus() >= 2
    with _PAIRS.lock:
        return _band_block(_PAIRS.forward_pass(pairs, m, h, pooled), n, mask)


def dealiased_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Pointwise product, dealiased per the grid policy.

    With ``three_halves_padding`` the result on the symmetric band is the
    exact convolution of the inputs off their Nyquist rows.  With
    ``two_thirds_truncation`` both inputs and the result are truncated to
    |k_i| <= n//3; on grids with 3 | n the edge shell aliases, which is the
    documented negative control for the cancellation tests.
    """
    grid = require_same_grid(u, v)
    return SpectralField(grid, band_product(grid, [(u.band, v.band)]))


# ---------------------------------------------------------------------------
# deterministic field constructors


def cosine_field(grid: GridSpec, kx: int, ky: int, amplitude: float = 1.0) -> SpectralField:
    """amplitude * cos(xi_k . x) built directly in coefficient space."""
    half = grid.n // 2
    if not (-half < kx < half and -half < ky < half) or (kx, ky) == (0, 0):
        raise ValueError(f"cosine mode ({kx},{ky}) outside the symmetric band")
    c = np.zeros(grid.band_shape, dtype=complex)
    for k1, k2 in ((kx, ky), (-kx, -ky)):
        if k2 >= 0:
            c[k1 % grid.n, k2] = 0.5 * amplitude
    return SpectralField(grid, c)


def _hermitian_random(grid: GridSpec, seed: int, radial_amp, amplitude: float, s: float,
                      name: str) -> SpectralField:
    """Random field with |c(k)| proportional to radial_amp(|k|) and i.i.d.
    phases, scaled to the H^s norm amplitude; a field that is zero on the
    grid, named by name in the error, or whose H^s norm is not finite raises
    ValueError.

    Phases are drawn once over the whole n x n index grid in a fixed order;
    a mode of the half-plane {k1 > 0} u {k1 = 0, k2 > 0} takes its own, any
    other mode the conjugate of its mirror's, so the result is deterministic
    in the seed.  The mean and the Nyquist row stay empty.
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
    mt = multiplier_table(grid)
    k1, k2 = mt.k1, mt.k2
    half_plane = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    amp = np.asarray(radial_amp(np.hypot(k1, k2)), dtype=float)
    # negative indices -k map each block cell to its mirror's phase
    mirrored = phases[np.ix_(-np.arange(grid.n), -np.arange(grid.n // 2))]
    c = amp * np.exp(1j * np.where(half_plane, phases[:, :grid.n // 2], mirrored))
    c = np.where(half_plane, c, np.conj(c))
    # the mean and the Nyquist row (its own mirror); the keep product fixes the zeros' signs
    c[0, 0] = c[grid.n // 2] = 0.0
    c *= mt.keep
    field = SpectralField(grid, c)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = sobolev_norm(field, s)
    if norm == 0.0:
        raise ValueError(f"{name} on n={grid.n}")
    if not np.isfinite(norm):
        raise ValueError(f"the H^{s:g} norm of a random field on n={grid.n} is not finite: "
                         f"no amplitude to scale to")
    field.band *= amplitude / norm
    return field


def random_band_field(
    grid: GridSpec,
    seed: int,
    amplitude: float = 1.0,
    s: float = 3.0,
    band_lo: int = 1,
    band_hi: int | None = None,
) -> SpectralField:
    """Seeded random field, power-law radial profile, band-limited.

    Coefficient magnitudes follow (1 + |xi|^2)^(-(s+1)) inside the index
    shell band_lo <= |k| <= band_hi and the field is scaled to the requested
    H^s amplitude.
    """
    if band_hi is None:
        band_hi = grid.n // 3
    lam = grid.frequency_unit

    def radial_amp(kk):
        q = (lam * kk) ** 2
        inside = (kk >= band_lo) & (kk <= band_hi)
        return np.where(inside, (1.0 + q) ** (-(s + 1.0)), 0.0)

    return _hermitian_random(grid, seed, radial_amp, amplitude, s,
                             f"empty band [{band_lo}, {band_hi}]")


def random_exponential_field(
    grid: GridSpec,
    seed: int,
    amplitude: float = 1.0,
    decay: float = 0.5,
    s: float = 3.0,
) -> SpectralField:
    """Seeded random field with exponentially decaying spectrum (analytic)."""

    def radial_amp(kk):
        return np.where(kk > 0, np.exp(-decay * kk), 0.0)

    return _hermitian_random(grid, seed, radial_amp, amplitude, s,
                             f"spectrum exp(-{decay:g} |k|) underflows to zero")

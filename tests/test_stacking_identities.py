"""NumPy identities the batched kernels rest on, pinned bitwise.

A GA generation is evaluated as stacked arrays (the describing-gain
grids and knot searches of every stimulus, one table per row block,
one Eq. 10 solve for every gene), and each stacked call must equal the
per-stimulus or per-gene call it replaced bit for bit.  So must the
compiled mixer-2 tape's 0-d folded constants (against the per-sample
rows they replaced), its power-of-two factors folded into constants
(against the halvings and doublings they replaced), its steps written
over a dying operand (against fresh outputs), MARS's one-call knot table (against one
quantile per feature) and the capture's block noise and FFT stages
(``standard_normal`` then ``0.0 + sigma * z`` against
``Generator.normal``, the lot's array noise sigmas against the scalar
chain, and the skipped rect window's ``x * 1.0 == x``).  Every "row
``i`` equals the device alone" contract, and every one-row ``signature``
call, also rests on a batched ``rfft`` row equalling the ``rfft`` of
that row alone.  That holds only while these library identities
hold on the installed NumPy and LAPACK, so each is asserted here on
random data: an upgrade that breaks one fails this file, not a golden
corpus far downstream.
"""

import numpy as np
import pytest

from repro.circuits.nonlinear import _knot_search


@pytest.fixture
def rng():
    return np.random.default_rng(20020304)


class TestStackedLinearAlgebra:
    @pytest.mark.parametrize("m, k", [(60, 6), (40, 9), (7, 12), (25, 1)])
    def test_stacked_svd_equals_per_matrix(self, rng, m, k):
        stack = rng.normal(size=(24, m, k)) * 10.0 ** rng.uniform(-4, 2, (24, 1, 1))
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        for g, a in enumerate(stack):
            u1, s1, vt1 = np.linalg.svd(a, full_matrices=False)
            assert np.array_equal(s[g], s1)
            assert np.array_equal(vt[g], vt1)
            assert np.array_equal(u[g], u1)

    @pytest.mark.parametrize("n, k", [(3, 6), (5, 9), (1, 12), (3, 1)])
    def test_stacked_matmul_equals_per_matrix(self, rng, n, k):
        a_p = rng.normal(size=(n, k))
        vt = rng.normal(size=(24, k, k))
        got = np.matmul(a_p, vt.transpose(0, 2, 1))
        for g in range(len(vt)):
            assert np.array_equal(got[g], a_p @ vt[g].T)

    @pytest.mark.parametrize("n", [1, 3, 8, 17])
    def test_middle_axis_mean_equals_per_matrix(self, rng, n):
        x = rng.normal(size=(24, n, 9)) * 10.0 ** rng.uniform(-8, 8, (24, n, 1))
        got = np.mean(x, axis=1)
        for g in range(len(x)):
            assert np.array_equal(got[g], np.mean(x[g], axis=0))


class TestStackedGrids:
    def test_array_stop_linspace_equals_per_row(self, rng):
        # only while no row's step is zero: one zero step switches the
        # whole call to another formula, so zero peaks are kept out
        stops = rng.uniform(1e-6, 5.0, 40) * 10.0 ** rng.integers(-3, 3, 40)
        grids = np.linspace(0.0, stops, 256, axis=1)
        for row, stop in zip(grids, stops):
            assert np.array_equal(row, np.linspace(0.0, stop, 256))

    def test_knot_search_equals_searchsorted(self, rng):
        stops = rng.uniform(0.01, 3.0, 24)
        grids = np.linspace(0.0, stops, 256, axis=1)
        x = rng.uniform(-0.1, 1.2, (24, 400)) * stops[:, None]
        x[:, :60] = grids[:, rng.integers(0, 256, 60)]  # exactly on knots
        x[:, 60] = stops  # the grid's end
        x[:, 61] = np.nan
        x[:, 62] = -0.0
        got = _knot_search(grids, x)
        for s in range(len(x)):
            want = np.searchsorted(grids[s], x[s], side="right") - 1
            assert np.array_equal(got[s], want)

    def test_flat_take_interpolation_equals_np_interp(self, rng):
        # a[i, j[i]] of a block as one flat take, in np.interp's formula
        grids = np.sort(rng.uniform(0.0, 2.0, (8, 256)), axis=1)
        grids[:, 0] = 0.0
        tables = rng.normal(size=(8, 256))
        x = rng.uniform(0.0, 1.9, (8, 300))
        j = np.array([np.searchsorted(g, xx, side="right") - 1 for g, xx in zip(grids, x)])
        j = np.clip(j, 0, 254)
        offset = np.arange(8)[:, None] * 256
        slopes = np.empty_like(tables)
        np.subtract(tables[:, 1:], tables[:, :-1], out=slopes[:, :-1])
        slopes[:, :-1] /= grids[:, 1:] - grids[:, :-1]
        got = np.take(slopes, j + offset)
        got *= x - np.take(grids, j + offset)
        got += np.take(tables, j + offset)
        for i in range(8):
            assert np.array_equal(got[i], np.interp(x[i], grids[i], tables[i]))


_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-310, -1e308]


def _with_specials(rng, shape, dtype):
    """Random values with NaN, +-inf, -0 and denormals sprinkled in."""
    a = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, shape)
    if dtype is complex:
        a = a + 1j * rng.normal(size=shape)
    flat = a.reshape(-1)
    cells = rng.integers(0, flat.size, flat.size // 8)
    for i in cells:
        if dtype is complex:
            flat[i] = complex(rng.choice(_SPECIALS), rng.choice(_SPECIALS + [1.5]))
        else:
            flat[i] = rng.choice(_SPECIALS)
    return a


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestScalarOperands:
    """A 0-d operand gives the bits of a row of that value, repeated."""

    @pytest.mark.parametrize("op", [np.multiply, np.add])
    @pytest.mark.parametrize("a_dtype, c_dtype", [(complex, complex), (complex, float), (float, complex), (float, float)])
    def test_scalar_operand_equals_per_sample_row(self, rng, op, a_dtype, c_dtype):
        a = _with_specials(rng, (40, 400), a_dtype)
        consts = list(_with_specials(rng, (24,), c_dtype)) + (
            [complex(x, y) for x in _SPECIALS for y in _SPECIALS]
            if c_dtype is complex
            else list(_SPECIALS)
        )
        for c in consts:
            scalar = np.array(c, dtype=c_dtype)
            row = np.full(400, c, dtype=c_dtype)
            dtype = np.result_type(a, scalar)
            for left in (True, False):
                args_s = (a, scalar) if left else (scalar, a)
                args_r = (a, row) if left else (row, a)
                with np.errstate(all="ignore"):
                    got = op(*args_s, out=np.empty(a.shape, dtype))
                    want = op(*args_r, out=np.empty(a.shape, dtype))
                assert _bits(got) == _bits(want), (op.__name__, c, left)


class TestPowerOfTwoScaling:
    """``2**k`` commutes with the mixer tape's kernels, bit for bit.

    The compiler folds the envelope algebra's halvings and doublings
    into constants, which needs every kernel -- NumPy's complex
    multiply with its fused multiply-adds included -- to round the same
    whether a power-of-two factor is applied before or after it, on
    finite values whose intermediates stay in the normal range.
    """

    @staticmethod
    def _normal_range(rng, shape, dtype):
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, shape)
        if dtype is complex:
            a = a + 1j * rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, shape)
        return a

    @pytest.mark.parametrize("k", range(-3, 4))
    @pytest.mark.parametrize("b_kind", ["complex", "real", "0-d complex", "0-d real", "row"])
    def test_scaled_operand_product(self, rng, k, b_kind):
        a = self._normal_range(rng, (40, 400), complex)
        b = {
            "complex": lambda: self._normal_range(rng, (40, 400), complex),
            "real": lambda: self._normal_range(rng, (40, 400), float),
            "0-d complex": lambda: np.array(0.37 - 1.9j),
            "0-d real": lambda: np.array(-0.0625),
            "row": lambda: self._normal_range(rng, (400,), complex),
        }[b_kind]()
        p = 2.0**k
        for left in (True, False):
            pair, scaled = ((a, b), (a * p, b)) if left else ((b, a), (b, a * p))
            assert _bits(np.multiply(*scaled)) == _bits(np.multiply(*pair) * p), left

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_scaled_sum_conjugate_and_real_part(self, rng, k):
        p = 2.0**k
        for dtype in (complex, float):
            a = self._normal_range(rng, (40, 400), dtype)
            b = self._normal_range(rng, (40, 400), dtype)
            assert _bits(a * p + b * p) == _bits((a + b) * p)
            assert _bits(a + a) == _bits(a * 2.0)
        a = self._normal_range(rng, (40, 400), complex)
        assert _bits(np.conjugate(a * p)) == _bits(np.conjugate(a) * p)
        assert _bits((a * p).real) == _bits(a.real * p)

    def test_scale_factor_takes_the_power_of_two(self, rng):
        x = self._normal_range(rng, (40, 400), complex)
        for c in (0.37, 0.002, 0.05, -1.3):
            for k in range(-3, 4):
                assert _bits((x * 2.0**k) * c) == _bits(x * (c * 2.0**k))


class TestInPlaceKernels:
    """A tape step may write over an operand it reads for the last time:
    each elementwise kernel gives the same bits into its own operand."""

    @pytest.mark.parametrize("op", [np.multiply, np.add])
    @pytest.mark.parametrize("a_dtype, b_dtype", [(complex, complex), (complex, float), (float, float)])
    def test_binary_kernel_into_an_operand(self, rng, op, a_dtype, b_dtype):
        a = _with_specials(rng, (40, 400), a_dtype)
        b = _with_specials(rng, (40, 400), b_dtype)
        for operands in ((a, b), (b, a), (a, a), (a, np.array(0.25 - 3.0j)), (a, 0.002)):
            dtype = np.result_type(*operands)
            with np.errstate(all="ignore"):
                want = op(*operands, out=np.empty(a.shape, dtype))
                for i, x in enumerate(operands):
                    if np.shape(x) != a.shape or x.dtype != dtype:
                        continue  # not an output-shaped buffer of the result type
                    alias = x.copy()
                    args = [alias if y is x else y for y in operands]
                    assert _bits(op(*args, out=alias)) == _bits(want), (op.__name__, i)

    def test_conjugate_into_its_operand(self, rng):
        a = _with_specials(rng, (40, 400), complex)
        want = np.conjugate(a)
        alias = a.copy()
        assert _bits(np.conjugate(alias, out=alias)) == _bits(want)


class TestQuantileTable:
    @pytest.mark.parametrize("n, d, k", [(60, 3, 7), (8, 5, 1), (200, 4, 9), (5, 2, 12)])
    def test_axis0_quantile_equals_per_column(self, rng, n, d, k):
        qs = np.linspace(0.0, 1.0, k + 2)[1:-1]
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, d)
        x[:, 0] = rng.integers(0, 3, n)  # tied values
        x[:, -1] = -0.0  # a constant column
        extra = np.column_stack([x[:, 1], x[:, 1], x[:, 1]])
        extra[rng.integers(n), 0] = np.nan
        extra[rng.integers(n), 1] = np.inf
        extra[rng.integers(n), 2] = -np.inf
        x = np.column_stack([x, extra])
        with np.errstate(all="ignore"):  # inf - inf between two knots
            table = np.quantile(x, qs, axis=0)
            for j in range(x.shape[1]):
                assert _bits(table[:, j]) == _bits(np.quantile(x[:, j], qs))



class TestCaptureNoiseArithmetic:
    """The capture's noise and FFT stages as block operations."""

    @pytest.mark.parametrize("sigma", [1e-3, 2.5, 1e-300, 0.0])
    def test_standard_normal_then_scale_equals_normal(self, sigma):
        # the digitizer draws z into its row of a block buffer, then runs
        # sigma * z and 0.0 + (.) over the block: Generator.normal's own
        # loc + scale * z.  At sigma = 0 the negative draws give -0.0
        # products, which the 0.0 + (.) turns +0.0, as normal does
        block = np.empty((3, 257))
        for i in range(3):
            np.random.default_rng(i).standard_normal(out=block[i])
        block[1, :5] = 0.0  # a row without a generator adds 0.0
        block *= sigma
        if sigma == 0.0:
            assert np.signbit(block[0]).any()
        np.add(0.0, block, out=block)
        for i in (0, 2):
            want = np.random.default_rng(i).normal(0.0, sigma, size=257)
            assert _bits(block[i]) == _bits(want)
        assert _bits(block[1, :5]) == _bits(np.zeros(5))

    def test_noise_sigma_array_form_equals_scalar_chain(self, rng):
        # (f - 1) g k T B, then max(., 0.0) and sqrt, as array operations
        # on the scalar pow's f and g (the pow itself stays scalar)
        import math

        values = list(rng.uniform(0.5, 5.0, 32)) + [
            1.0, 0.0, -0.0, 1e-320, np.nan, np.inf, -np.inf, 1e300, 1e-300, -2.0,
        ]
        pairs = [(f, g) for f in values for g in values]
        f = np.array([p[0] for p in pairs])
        g = np.array([p[1] for p in pairs])
        k, t, b, r = 1.380649e-23, 290.0, 80e6, 50.0
        with np.errstate(all="ignore"):
            power = (f - 1.0) * g * k * t * b
            got = np.sqrt(np.where(power < 0.0, 0.0, power) * r)
            loose = np.sqrt(np.maximum(power, 0.0) * r)
        want = []
        for fi, gi in pairs:
            p = (float(fi) - 1.0) * float(gi) * k * t * b
            want.append(math.sqrt(max(p, 0.0) * r))
        assert _bits(got) == _bits(np.array(want))
        # np.maximum is not the scalar max: it turns a -0.0 power into
        # +0.0 where max keeps -0.0 (both are sigma 0, drawing nothing)
        neg_zero = np.flatnonzero((power == 0.0) & np.signbit(power))
        assert len(neg_zero)
        assert np.signbit(got[neg_zero]).all() and not np.signbit(loose[neg_zero]).any()

    def test_rect_window_multiply_is_exact(self, rng):
        # the FFT signature skips the all-ones rect window: x * 1.0 == x
        x = _with_specials(rng, (40, 100), float)
        ones = np.ones(100)
        assert _bits(x * ones) == _bits(x)
        assert float(np.mean(ones)) == 1.0
        finite = rng.normal(size=(40, 100))
        assert _bits(np.fft.rfft(finite * ones, axis=-1)) == _bits(np.fft.rfft(finite, axis=-1))


class TestBatchedFFT:
    # odd, prime and power-of-two lengths, and the simulation (400) and
    # hardware (20,000) digitized record lengths
    @pytest.mark.parametrize("n", [2, 3, 9, 97, 400, 1024, 4001, 16384, 20000])
    def test_rfft_rows_equal_rfft_of_each_row(self, rng, n):
        for rows in (1, 2, 7, 40, 64):
            x = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-4, 2, (rows, 1))
            got = np.fft.rfft(x, axis=-1)
            for i in range(rows):
                assert _bits(got[i]) == _bits(np.fft.rfft(x[i])), (n, rows, i)

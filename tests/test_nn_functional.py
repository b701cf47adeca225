"""Tests for the stateless numerical kernels in repro.nn.functional."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F

from .helpers import masked_sigmoid

RNG = np.random.default_rng(3)


class TestActivations:
    def test_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(F.relu(x), [0.0, 0.0, 3.0])

    def test_relu_grad_masks(self):
        x = np.array([-1.0, 2.0])
        g = np.array([5.0, 5.0])
        np.testing.assert_array_equal(F.relu_grad(x, g), [0.0, 5.0])

    def test_sigmoid_range_and_symmetry(self):
        x = RNG.normal(size=100) * 10
        s = F.sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        np.testing.assert_allclose(F.sigmoid(-x), 1 - s, rtol=1e-5, atol=1e-7)

    def test_sigmoid_extreme_values_no_overflow(self):
        x = np.array([-500.0, 500.0], dtype=np.float32)
        s = F.sigmoid(x)
        assert np.all(np.isfinite(s))
        assert s[0] < 1e-30 and s[1] > 1 - 1e-7

    def test_sigmoid_at_zero(self):
        assert F.sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_bitwise_masked_reference(self):
        """The mask-free form is bitwise the sign-split form it replaced,
        at the edges of float32: signed zeros, infinities, the overflow
        edge of ``exp`` (±88.7), deep underflow (−104) and subnormals."""
        tiny = np.finfo(np.float32).smallest_subnormal
        edges = np.array(
            [0.0, -0.0, np.inf, -np.inf, 88.7, -88.7, 88.72, -88.72, 89.0, -89.0,
             -103.9, -104.0, -104.1, tiny, -tiny, 1e-45, -1e-45, 1e-38, -1e-38,
             16.6, -16.6, 17.0, -17.0],
            dtype=np.float32,
        )
        x = np.concatenate(
            [edges, (RNG.normal(size=100_000) * 20).astype(np.float32)]
        )
        with np.errstate(over="ignore", under="ignore"):
            ref = masked_sigmoid(x)
        np.testing.assert_array_equal(F.sigmoid(x).view(np.uint32), ref.view(np.uint32))

    def test_sigmoid_strided_slices_bitwise(self):
        """Gate slices of a ``4H`` block — the views the LSTM kernel's
        one-call activation covers — equal the reference per slice."""
        z = (RNG.normal(size=(3, 8, 64)) * 6).astype(np.float32)
        whole = F.sigmoid(z)
        for k in range(4):
            part = z[..., 16 * k : 16 * (k + 1)]
            np.testing.assert_array_equal(
                whole[..., 16 * k : 16 * (k + 1)].view(np.uint32),
                masked_sigmoid(part).view(np.uint32),
            )
            np.testing.assert_array_equal(
                F.sigmoid(part).view(np.uint32), masked_sigmoid(part).view(np.uint32)
            )
        every_other = z[:, ::2, 1::3]
        np.testing.assert_array_equal(
            F.sigmoid(every_other).view(np.uint32),
            masked_sigmoid(every_other).view(np.uint32),
        )

    def test_sigmoid_out_argument(self):
        z = (RNG.normal(size=(4, 6)) * 5).astype(np.float32)
        out = np.empty((6, 4), dtype=np.float32).T
        assert F.sigmoid(z, out=out) is out
        np.testing.assert_array_equal(out, F.sigmoid(z))

    def test_sigmoid_nan_stays_nan(self):
        x = np.array([np.nan, 1.0, -np.nan], dtype=np.float32)
        s = F.sigmoid(x)
        assert np.isnan(s[0]) and np.isnan(s[2]) and not np.isnan(s[1])

    def test_sigmoid_raises_no_flag_on_finite_input(self):
        big = np.finfo(np.float32).max
        x = np.array(
            [-big, big, -1e4, 1e4, -88.8, 88.8, -104.0, 104.0, 0.0, -0.0],
            dtype=np.float32,
        )
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            s = F.sigmoid(x)
        assert np.all((s >= 0.0) & (s <= 1.0))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = RNG.normal(size=(5, 7))
        np.testing.assert_allclose(F.softmax(x).sum(axis=1), 1.0, rtol=1e-6)

    def test_shift_invariance(self):
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), rtol=1e-5)

    def test_log_softmax_consistent(self):
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(
            F.log_softmax(x), np.log(F.softmax(x)), rtol=1e-5, atol=1e-7
        )

    def test_extreme_logits_finite(self):
        x = np.array([[1000.0, -1000.0]])
        assert np.all(np.isfinite(F.log_softmax(x)))


class TestIm2Col:
    def test_geometry(self):
        assert F.conv_output_size(8, 8, 3, 1, 1) == (8, 8)
        cols = F.im2col(RNG.normal(size=(2, 3, 8, 8)), 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 64)

    def test_stride_geometry(self):
        assert F.conv_output_size(8, 8, 3, 2, 1) == (4, 4)

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 2, 5, 1, 0)

    def test_im2col_extracts_patches(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 2, 1, 0)
        # First column is the top-left 2x2 patch.
        np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 4, 5])
        # Last column is the bottom-right patch.
        np.testing.assert_array_equal(cols[0, :, -1], [10, 11, 14, 15])

    def test_col2im_accumulates_overlaps(self):
        # All-ones columns: each input position receives one contribution per
        # window that covers it.
        cols = np.ones((1, 4, 4))
        out = F.col2im(cols, (1, 1, 3, 3), 2, 1, 0)
        np.testing.assert_array_equal(
            out[0, 0], [[1, 2, 1], [2, 4, 2], [1, 2, 1]]
        )

    def test_padding_roundtrip_shape(self):
        x = RNG.normal(size=(2, 2, 5, 5))
        cols = F.im2col(x, 3, 1, 1)
        back = F.col2im(cols, x.shape, 3, 1, 1)
        assert back.shape == x.shape

"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    cosine_similarity,
    marginal_benefit,
    marginal_cost,
    sample_size,
    statistical_progress,
)
from repro.core.profiler import ProfiledCurves
from repro.runtime.aggregation import aggregate_updates, apply_update
from repro.runtime.round import ClientRoundResult
from repro.sysmodel import LinkModel, SpeedTrace, UplinkScheduler, select_deadline

from .helpers import masked_sigmoid

finite_vec = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=16),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


# ----------------------------------------------------------------------
# Statistical progress (Eq. 1)
# ----------------------------------------------------------------------
class TestProgressProperties:
    @given(finite_vec)
    def test_self_progress_is_one_or_zero_vector(self, v):
        p = statistical_progress(v, v)
        assert p == pytest.approx(1.0)

    @given(finite_vec, st.floats(min_value=0.01, max_value=100.0))
    def test_bounded_by_one(self, v, scale):
        p = statistical_progress(v * scale, v)
        assert p <= 1.0 + 1e-9

    @given(finite_vec, finite_vec.flatmap(lambda a: st.just(a)))
    def test_symmetric(self, a, b):
        if a.shape != b.shape:
            return
        assert statistical_progress(a, b) == pytest.approx(
            statistical_progress(b, a), abs=1e-9
        )

    @given(finite_vec, st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scaling_of_both_invariant(self, v, s):
        w = v + 1.0  # avoid the zero vector
        assert statistical_progress(s * w, s * (2 * w)) == pytest.approx(
            statistical_progress(w, 2 * w), abs=1e-9
        )

    @given(finite_vec)
    def test_cosine_in_range(self, v):
        w = np.roll(v, 1)
        c = cosine_similarity(v, w)
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# Sampling rule
# ----------------------------------------------------------------------
class TestSamplingProperties:
    @given(st.integers(min_value=1, max_value=10**7))
    def test_paper_rule_bounds(self, n):
        k = sample_size(n)
        assert 1 <= k <= min(n, 100) or (n == 1 and k == 1)
        assert k <= 100
        assert k <= max(1, (n + 1) // 2 + 1)

    @given(
        st.integers(min_value=1, max_value=10000),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1, max_value=500),
    )
    def test_monotone_in_layer_size(self, n, frac, cap):
        a = sample_size(n, fraction=frac, cap=cap)
        b = sample_size(n + 1, fraction=frac, cap=cap)
        assert b >= a


# ----------------------------------------------------------------------
# Utility (Eqs. 2–4)
# ----------------------------------------------------------------------
@st.composite
def monotone_curve(draw):
    k = draw(st.integers(min_value=2, max_value=30))
    increments = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=k,
            max_size=k,
        )
    )
    total = sum(increments) or 1.0
    curve = np.cumsum([i / total for i in increments])
    curve[-1] = 1.0
    return ProfiledCurves(
        round_index=0,
        num_iterations=k,
        layer_curves={"l": curve.copy()},
        model_curve=curve,
    )


class TestUtilityProperties:
    @given(monotone_curve(), st.data())
    def test_benefit_nonnegative_for_monotone_curves(self, curves, data):
        tau = data.draw(st.integers(min_value=1, max_value=curves.num_iterations))
        assert marginal_benefit(curves, tau) >= -1e-12

    @given(monotone_curve(), st.data())
    def test_benefit_at_least_uniform_floor(self, curves, data):
        tau = data.draw(st.integers(min_value=1, max_value=curves.num_iterations - 1))
        floor = (1.0 - curves.p(tau)) / (curves.num_iterations - tau)
        assert marginal_benefit(curves, tau) >= floor - 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
        st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_cost_monotone_in_elapsed(self, elapsed, deadline, beta):
        c1 = marginal_cost(elapsed, deadline, beta)
        c2 = marginal_cost(elapsed * 1.5 + 1e-6, deadline, beta)
        assert c2 >= c1 - 1e-12

    @given(
        st.floats(min_value=1e-3, max_value=1e4),
        st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_cost_jumps_at_deadline(self, deadline, beta):
        before = marginal_cost(deadline * 0.999, deadline, beta)
        after = marginal_cost(deadline * 1.001, deadline, beta)
        assert after >= before


# ----------------------------------------------------------------------
# System substrate
# ----------------------------------------------------------------------
class TestSystemProperties:
    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_trace_finish_bounds(self, base, seed, iters):
        tr = SpeedTrace(base, seed=seed)
        finish = tr.iteration_finish_time(0.0, iters)
        assert iters * base - 1e-9 <= finish <= iters * base * 5.0 + 1e-6

    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_trace_additivity(self, base, seed, a, b):
        tr = SpeedTrace(base, seed=seed)
        direct = tr.iteration_finish_time(0.0, a + b)
        chained = tr.iteration_finish_time(tr.iteration_finish_time(0.0, a), b)
        assert direct == pytest.approx(chained, rel=1e-9, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_uplink_fifo_no_overlap(self, submissions):
        sched = UplinkScheduler(LinkModel(uplink_mbps=8.0))
        submissions.sort(key=lambda t: t[0])
        last_finish = 0.0
        for when, nbytes in submissions:
            tx = sched.submit(when, nbytes)
            assert tx.start_time >= when
            assert tx.start_time >= last_finish - 1e-12
            assert tx.finish_time >= tx.start_time
            last_finish = tx.finish_time

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=40
        )
    )
    def test_deadline_within_observed_range(self, times):
        d = select_deadline(times)
        assert min(times) <= d <= max(times)

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=40
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_deadline_min_fraction_satisfied(self, times, frac):
        d = select_deadline(times, min_fraction=frac)
        covered = sum(1 for t in times if t <= d) / len(times)
        assert covered >= min(frac, 1.0) - 1e-9


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _mk_result(cid, samples, value):
    return ClientRoundResult(
        client_id=cid,
        update={"w": np.full(4, value, dtype=np.float32)},
        num_samples=samples,
        iterations_run=1,
        compute_start_time=0.0,
        compute_finish_time=1.0,
        upload_finish_time=2.0,
        bytes_uploaded=16,
        mean_loss=0.0,
    )


class TestAggregationProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=1000),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_aggregate_within_convex_hull(self, specs):
        results = [_mk_result(i, s, v) for i, (s, v) in enumerate(specs)]
        agg = aggregate_updates(results)
        values = [v for _, v in specs]
        assert min(values) - 1e-3 <= float(agg["w"][0]) <= max(values) + 1e-3

    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=10),
        st.floats(min_value=-10, max_value=10),
    )
    def test_identical_updates_fixed_point(self, weights, value):
        results = [_mk_result(i, w, value) for i, w in enumerate(weights)]
        agg = aggregate_updates(results)
        np.testing.assert_allclose(agg["w"], value, atol=1e-4)

    @given(
        hnp.arrays(
            np.float32, 5, elements=st.floats(min_value=-50, max_value=50, width=32)
        ),
        hnp.arrays(
            np.float32, 5, elements=st.floats(min_value=-50, max_value=50, width=32)
        ),
    )
    def test_apply_update_is_elementwise_sum(self, w, d):
        out = apply_update({"w": w}, {"w": d})
        np.testing.assert_allclose(out["w"], w + d, rtol=1e-5, atol=1e-5)


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def gather_indices(c, h, w, k, stride, pad):
    """Fancy-index triple ``(ch, i, j)`` with ``padded[:, ch, i, j]`` the
    ``(N, C*k*k, out_h*out_w)`` column tensor — the gather the im2col
    kernels used before their strided-view rewrite."""
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    i = np.tile(np.repeat(np.arange(k), k), c)[:, None] + stride * np.repeat(
        np.arange(out_h), out_w
    )
    j = np.tile(np.arange(k), k * c)[:, None] + stride * np.tile(
        np.arange(out_w), out_h
    )
    ch = np.repeat(np.arange(c), k * k)[:, None]
    return ch, i, j


def scatter_col2im(cols, x_shape, k, stride, pad):
    """Reference fold: the element-wise ``np.add.at`` scatter over the
    gather indices that ``F.col2im`` used before its strided slice-add
    rewrite."""
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    np.add.at(padded, (slice(None), *gather_indices(c, h, w, k, stride, pad)), cols)
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


class TestConvKernelProperties:
    @given(
        st.integers(min_value=1, max_value=3),   # channels
        st.integers(min_value=3, max_value=8),   # H = W
        st.integers(min_value=1, max_value=3),   # kernel
        st.integers(min_value=1, max_value=2),   # stride
        st.integers(min_value=0, max_value=1),   # pad
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_col2im_is_adjoint_of_im2col(self, c, hw, k, stride, pad, seed):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        that makes the conv backward pass correct."""
        from repro.nn import functional as F

        if hw + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, c, hw, hw))
        cols = F.im2col(x, k, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, k, stride, pad)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=3),   # N
        st.integers(min_value=1, max_value=3),   # C
        st.integers(min_value=1, max_value=9),   # H
        st.integers(min_value=1, max_value=9),   # W
        st.integers(min_value=1, max_value=4),   # kernel
        st.integers(min_value=1, max_value=3),   # stride
        st.integers(min_value=0, max_value=5),   # pad, may exceed k - 1
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_col2im_slice_fold_matches_scatter(self, n, c, h, w, k, stride, pad, seed):
        """The strided slice-add fold is bitwise the element-wise scatter
        it replaced (:func:`scatter_col2im`), and the strided-view im2col
        the fancy-index gather, over random geometries."""
        from repro.nn import functional as F

        if min(h, w) + 2 * pad < k:
            return
        out_h, out_w = F.conv_output_size(h, w, k, stride, pad)
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(n, c * k * k, out_h * out_w)).astype(np.float32)
        np.testing.assert_array_equal(
            F.col2im(cols, (n, c, h, w), k, stride, pad),
            scatter_col2im(cols, (n, c, h, w), k, stride, pad),
        )
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        np.testing.assert_array_equal(
            F.im2col(x, k, stride, pad),
            padded[(slice(None), *gather_indices(c, h, w, k, stride, pad))],
        )

    def test_src_has_no_scatter_add(self):
        src = Path(__file__).resolve().parents[1] / "src"
        hits = [
            str(path) for path in src.rglob("*.py") if "np.add.at" in path.read_text()
        ]
        assert hits == []

    @given(
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_im2col_preserves_values(self, c, hw, seed):
        """With k=1, stride=1, pad=0, im2col is a pure reshape."""
        from repro.nn import functional as F

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, c, hw, hw))
        cols = F.im2col(x, 1, 1, 0)
        np.testing.assert_allclose(cols.reshape(1, c, hw, hw), x)


# ----------------------------------------------------------------------
# LSTM kernel
# ----------------------------------------------------------------------
def steps_lstm_forward(x, params):
    """Reference forward: the step-by-step kernel ``F.lstm_forward``
    replaced — both matmuls and three masked sigmoids per step, and a
    dict of that step's operands cached per step."""
    c, n, t_steps, _ = x.shape
    h_dim = params[0][1].shape[-1]
    cache = []
    layer_input = x
    for w_ih, w_hh, b_ih, b_hh in params:
        w_ih_t = w_ih.transpose(0, 2, 1)
        w_hh_t = w_hh.transpose(0, 2, 1)
        bias = (b_ih + b_hh)[:, None, :]
        h = np.zeros((c, n, h_dim), dtype=np.float32)
        cc = np.zeros((c, n, h_dim), dtype=np.float32)
        steps = []
        outputs = np.empty((c, n, t_steps, h_dim), dtype=np.float32)
        for t in range(t_steps):
            x_t = layer_input[:, :, t, :]
            z = np.matmul(x_t, w_ih_t) + np.matmul(h, w_hh_t) + bias
            i_g = masked_sigmoid(z[..., :h_dim])
            f_g = masked_sigmoid(z[..., h_dim : 2 * h_dim])
            g_g = np.tanh(z[..., 2 * h_dim : 3 * h_dim])
            o_g = masked_sigmoid(z[..., 3 * h_dim :])
            c_new = f_g * cc + i_g * g_g
            tanh_c = np.tanh(c_new)
            h_new = o_g * tanh_c
            steps.append(
                {
                    "x": x_t, "h_prev": h, "c_prev": cc,
                    "i": i_g, "f": f_g, "g": g_g, "o": o_g, "tanh_c": tanh_c,
                }
            )
            h, cc = h_new, c_new
            outputs[:, :, t, :] = h_new
        cache.append(steps)
        layer_input = outputs
    return layer_input[:, :, -1, :], (cache, x.shape)


def steps_lstm_backward(grad_h_last, params, grads, cache, *, want_dx=True):
    """Reference BPTT of :func:`steps_lstm_forward`: every gradient term
    computed and accumulated inside the descending time loop."""
    steps_by_layer, (c, n, t_steps, _) = cache
    h_dim = params[0][1].shape[-1]
    dh_seq = np.zeros((c, n, t_steps, h_dim), dtype=np.float32)
    dh_seq[:, :, -1, :] = grad_h_last
    for layer in range(len(params) - 1, -1, -1):
        w_ih, w_hh, _, _ = params[layer]
        gw_ih, gw_hh, gb_ih, gb_hh = grads[layer]
        steps = steps_by_layer[layer]
        layer_dx = layer > 0 or want_dx
        dx_seq = np.zeros((c, n, t_steps, w_ih.shape[-1]), dtype=np.float32)
        dh_next = np.zeros((c, n, h_dim), dtype=np.float32)
        dc_next = np.zeros((c, n, h_dim), dtype=np.float32)
        for t in range(t_steps - 1, -1, -1):
            s = steps[t]
            dh = dh_seq[:, :, t, :] + dh_next
            do = dh * s["tanh_c"]
            dc = dh * s["o"] * (1.0 - s["tanh_c"] ** 2) + dc_next
            di = dc * s["g"]
            df = dc * s["c_prev"]
            dg = dc * s["i"]
            dz = np.concatenate(
                [
                    di * s["i"] * (1.0 - s["i"]),
                    df * s["f"] * (1.0 - s["f"]),
                    dg * (1.0 - s["g"] ** 2),
                    do * s["o"] * (1.0 - s["o"]),
                ],
                axis=2,
            )
            dz_t = dz.transpose(0, 2, 1)
            gw_ih += np.matmul(dz_t, s["x"])
            gw_hh += np.matmul(dz_t, s["h_prev"])
            dbias = dz.sum(axis=1)
            gb_ih += dbias
            gb_hh += dbias
            if layer_dx:
                dx_seq[:, :, t, :] = np.matmul(dz, w_ih)
            dh_next = np.matmul(dz, w_hh)
            dc_next = dc * s["f"]
        dh_seq = dx_seq
    return dh_seq if want_dx else None


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


class TestLSTMKernelProperties:
    @given(
        st.integers(min_value=1, max_value=4),   # C
        st.integers(min_value=1, max_value=9),   # N
        st.integers(min_value=1, max_value=12),  # T
        st.integers(min_value=1, max_value=20),  # D
        st.integers(min_value=1, max_value=20),  # H
        st.integers(min_value=1, max_value=3),   # layers
        st.booleans(),                           # want_dx
        st.sampled_from([0.1, 1.0, 4.0]),        # weight scale
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_step_kernel_bitwise(self, c, n, t, d, h, layers, want_dx, scale, seed):
        """Output, every layer's four gradients (accumulated into nonzero
        starting values) and dx are bitwise those of the step-by-step
        kernel the stacked one replaced, with fresh arrays and with a
        reused workspace."""
        from repro.nn import functional as F

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c, n, t, d)).astype(np.float32)
        params, grads = [], []
        for layer in range(layers):
            in_dim = d if layer == 0 else h
            shapes = [(c, 4 * h, in_dim), (c, 4 * h, h), (c, 4 * h), (c, 4 * h)]
            params.append(
                tuple((scale * rng.normal(size=s)).astype(np.float32) for s in shapes)
            )
            grads.append(tuple(rng.normal(size=s).astype(np.float32) for s in shapes))
        grad_h = rng.normal(size=(c, n, h)).astype(np.float32)

        ref_grads = [tuple(g.copy() for g in quad) for quad in grads]
        ref_out, ref_cache = steps_lstm_forward(x, params)
        ref_dx = steps_lstm_backward(grad_h, params, ref_grads, ref_cache, want_dx=want_dx)

        # A workspace left over from an earlier step, its arrays poisoned
        # with NaN: an element the kernel reads before writing shows up.
        stale = {}
        _, stale_cache = F.lstm_forward(x, params, stale)
        F.lstm_backward(grad_h, params, [tuple(np.zeros_like(g) for g in quad)
                                         for quad in grads], stale_cache, workspace=stale)
        for arr in stale.values():
            arr.fill(np.nan)
        for workspace in (None, stale):
            step_grads = [tuple(g.copy() for g in quad) for quad in grads]
            out, cache = F.lstm_forward(x, params, workspace)
            dx = F.lstm_backward(grad_h, params, step_grads, cache, want_dx=want_dx,
                                 workspace=workspace)

            np.testing.assert_array_equal(bits(out), bits(ref_out))
            for quad, ref_quad in zip(step_grads, ref_grads):
                for g, ref_g in zip(quad, ref_quad):
                    np.testing.assert_array_equal(bits(g), bits(ref_g))
            if want_dx:
                assert dx.shape == ref_dx.shape
                np.testing.assert_array_equal(bits(dx), bits(ref_dx))
            else:
                assert dx is None and ref_dx is None


# ----------------------------------------------------------------------
# Module state round-trips
# ----------------------------------------------------------------------
class TestStateRoundtripProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_state_dict_roundtrip_identity(self, seed):
        from repro.nn import LeNetCNN

        model = LeNetCNN(rng=np.random.default_rng(seed))
        clone = LeNetCNN(rng=np.random.default_rng(seed + 1))
        clone.load_state_dict(model.state_dict())
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)


# ----------------------------------------------------------------------
# Eager schedule
# ----------------------------------------------------------------------
class TestEagerScheduleProperties:
    @given(monotone_curve(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_triggers_monotone_in_threshold(self, curves, data):
        """Raising T_e can only delay (or remove) a layer's trigger."""
        from repro.core import EagerSchedule

        lo = data.draw(st.floats(min_value=0.05, max_value=0.5))
        hi = data.draw(st.floats(min_value=0.55, max_value=1.0))
        sched_lo = EagerSchedule(curves, lo)
        sched_hi = EagerSchedule(curves, hi)
        for name, tau_hi in sched_hi.triggers.items():
            assert name in sched_lo.triggers
            assert sched_lo.triggers[name] <= tau_hi

    @given(monotone_curve())
    @settings(max_examples=30, deadline=None)
    def test_due_partitions_layers(self, curves):
        """Draining due() across all iterations plus pending_layers() covers
        every layer exactly once."""
        from repro.core import EagerSchedule

        sched = EagerSchedule(curves, 0.9)
        sent = []
        for tau in range(1, curves.num_iterations + 1):
            sent.extend(sched.due(tau))
        pending = sched.pending_layers(list(curves.layer_curves))
        assert sorted(sent + pending) == sorted(curves.layer_curves)
        assert len(set(sent)) == len(sent)

"""Gradient and contract checks for the differentiable kernels.

Every differentiable op is validated against central finite differences
(the independent oracle): h = 1e-4, 64-bit floats, rel-err < 1e-3.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from _weights import batch_norm, bilstm_weights

from editseg import autodiff as ad
from editseg import kernels as K
from editseg.autodiff import Tensor

TOL = 1e-3
H_STEP = 1e-4


def rng_for(seed):
    return np.random.default_rng(seed)


def channels_last(a):
    """(B, C, H, W) -> contiguous (B, H, W, C), the layout the spatial ops take."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


# ---------------------------------------------------------------------------
# embedding_lookup


def test_embedding_identity_rows():
    table = Tensor(np.eye(3))
    out = K.embedding_lookup(table, [2, 0])
    assert np.array_equal(out.data, np.array([[0, 0, 1], [1, 0, 0]], dtype=float))


def test_embedding_grad_counts_occurrences():
    table = Tensor(rng_for(0).normal(size=(4, 3)), requires_grad=True)
    out = K.embedding_lookup(table, [1, 1, 3])
    out.sum().backward()
    counts = np.zeros((4, 1))
    counts[1] = 2
    counts[3] = 1
    assert np.array_equal(table.grad, counts * np.ones((4, 3)))


def test_embedding_out_of_range_fails_with_index():
    table = Tensor(np.eye(3))
    with pytest.raises(IndexError, match="7"):
        K.embedding_lookup(table, [0, 7])


@pytest.mark.parametrize("seed", range(3))
def test_embedding_grad_matches_finite_differences(seed):
    rng = rng_for(seed)
    table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    ids = [1, 1, 3]
    w = rng.normal(size=(3, 4))

    def f():
        return ad.tsum(ad.mul(K.embedding_lookup(table, ids), w))

    assert K.grad_check(f, [table], h=H_STEP) < 1e-4


# ---------------------------------------------------------------------------
# bilstm


def test_bilstm_zero_params_zero_output():
    def zeros():
        return [Tensor(np.zeros(shape), requires_grad=True) for shape in ((4, 20), (5, 20), (20,))]

    out = K.bilstm(Tensor(rng_for(1).normal(size=(3, 4))[None]), zeros(), zeros())
    assert np.array_equal(out.data, np.zeros((1, 3, 10)))


def test_bilstm_single_step_directions_agree():
    rng = rng_for(2)
    fwd, bwd = bilstm_weights(rng, 4, 5)
    x = Tensor(rng.normal(size=(1, 4))[None])
    out = K.bilstm(x, fwd, bwd)
    assert out.data.shape == (1, 1, 10)
    # With one step, both directions see the same input through their own
    # weights; feeding the same params to both must duplicate the halves.
    out_same = K.bilstm(x, fwd, fwd)
    assert np.allclose(out_same.data[0, 0, :5], out_same.data[0, 0, 5:])


@pytest.mark.parametrize("seed", range(3))
def test_bilstm_grads_match_finite_differences(seed):
    rng = rng_for(100 + seed)
    fwd, bwd = bilstm_weights(rng, 4, 5)
    x = Tensor(rng.normal(size=(3, 4))[None], requires_grad=True)
    probe = rng.normal(size=(3, 10))[None]

    def f():
        return ad.tsum(ad.mul(K.bilstm(x, fwd, bwd), probe))

    assert K.grad_check(f, [x, *fwd, *bwd], h=H_STEP) < TOL


def test_masked_batch_matches_per_example():
    rng = rng_for(3)
    p = bilstm_weights(rng, 3, 4)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(2, 3))
    batch = np.zeros((2, 5, 3))
    batch[0] = a
    batch[1, :2] = b
    out = K.bilstm(Tensor(batch), *p, lengths=[5, 2])
    out_a = K.bilstm(Tensor(a[None]), *p)
    out_b = K.bilstm(Tensor(b[None]), *p)
    assert np.allclose(out.data[0], out_a.data[0])
    assert np.allclose(out.data[1, :2], out_b.data[0])
    assert np.allclose(out.data[1, 2:], 0.0)


@pytest.mark.parametrize("seed", range(2))
def test_bilstm_padded_batch_grads_match_finite_differences(seed):
    # Unequal lengths: the reverse direction reads each row backwards within
    # its own length, and padded positions must get exactly zero gradient.
    rng = rng_for(150 + seed)
    fwd, bwd = bilstm_weights(rng, 3, 4)
    for t in (*fwd, *bwd):
        t.data += rng.normal(size=t.data.shape) * 0.3
    lengths = [5, 2, 4]
    x = Tensor(rng.normal(size=(3, 5, 3)), requires_grad=True)
    probe = rng.normal(size=(3, 5, 8))

    def f():
        return ad.tsum(ad.mul(K.bilstm(x, fwd, bwd, lengths=lengths), probe))

    assert K.grad_check(f, [x, *fwd, *bwd], h=H_STEP) < TOL
    x.zero_grad()
    f().backward()
    assert np.all(x.grad[1, 2:] == 0.0) and np.all(x.grad[2, 4:] == 0.0)


def test_lstm_rejects_lengths_beyond_sequence():
    fwd, _ = bilstm_weights(rng_for(9), 3, 2)
    with pytest.raises(ValueError, match="lengths"):
        K.lstm(Tensor(np.zeros((2, 4, 3))), *fwd, lengths=[4, 5])


# ---------------------------------------------------------------------------
# conv / pool / deconv


def test_conv_identity_kernel_passthrough():
    x = Tensor(np.abs(rng_for(4).normal(size=(1, 5, 6))).transpose(1, 2, 0)[None])
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = K.conv2d(x, Tensor(k))
    assert np.array_equal(out.data, x.data)


def test_conv_bn_relu_all_negative_is_zero():
    x = Tensor((-np.abs(rng_for(5).normal(size=(2, 4, 4))) - 0.1).transpose(1, 2, 0)[None])
    k = np.zeros((3, 2, 3, 3))
    k[:, :, 1, 1] = 1.0
    out = K.conv_bn_relu(x, Tensor(k), *batch_norm(3), training=False)
    assert np.array_equal(out.data, np.zeros((1, 4, 4, 3)))


def test_conv_channel_mismatch_fails():
    with pytest.raises(ValueError, match="channel"):
        K.conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 5, 3, 3))))


def conv_reference(x, k):
    """Direct-loop 3x3 same-padded cross-correlation, the textbook definition."""
    B, C, H, W = x.shape
    Co = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((B, Co, H, W))
    for b in range(B):
        for o in range(Co):
            for i in range(H):
                for j in range(W):
                    out[b, o, i, j] = np.sum(xp[b, :, i : i + 3, j : j + 3] * k[o])
    return out


# C < C' and C = C' stack the input; C > C' multiplies by all taps and adds
# the blocks back, so both sides of the choice run on grids of H, W >= 2.
@pytest.mark.parametrize(
    "shape, co",
    [((2, 3, 4, 8), 5), ((3, 2, 1, 1), 1), ((1, 1, 5, 2), 3), ((2, 7, 3, 5), 3), ((2, 4, 3, 5), 4)],
)
def test_conv_matches_direct_loop_reference(shape, co):
    rng = rng_for(sum(shape) + co)
    x = rng.normal(size=shape)
    k = rng.normal(size=(co, shape[1], 3, 3))
    out = K.conv2d(Tensor(channels_last(x)), Tensor(k))
    assert np.allclose(out.data, channels_last(conv_reference(x, k)), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "seed, shape, co",
    [
        pytest.param(0, (2, 3, 4, 8), 5, id="0"),
        pytest.param(1, (2, 3, 4, 8), 5, id="1"),
        # Wide input, narrow output: the shape class of the first U-Net conv.
        pytest.param(2, (2, 5, 3, 6), 2, id="wide_in_narrow_out"),
        # One row: the upper and lower taps of every pixel read the ring, and
        # an edge pixel has only two taps inside the image.
        pytest.param(3, (2, 3, 1, 5), 4, id="one_row"),
        pytest.param(4, (2, 5, 1, 4), 2, id="one_row_wide_in"),
        pytest.param(5, (2, 3, 4, 5), 3, id="equal_channels"),
    ],
)
def test_conv_grads_match_finite_differences_batched_non_square(seed, shape, co):
    # B=2 on non-square grids with C != Co: a batch-boundary or row/column
    # mix-up in the flattened shifts would show here, not on one square image.
    rng = rng_for(250 + seed)
    x = Tensor(channels_last(rng.normal(size=shape)), requires_grad=True)
    k = Tensor(rng.normal(size=(co, shape[1], 3, 3)), requires_grad=True)
    probe = channels_last(rng.normal(size=(shape[0], co) + shape[2:]))

    def f():
        return ad.tsum(ad.mul(K.conv2d(x, k), probe))

    assert K.grad_check(f, [x, k], h=H_STEP) < TOL


@pytest.mark.parametrize("c, co", [(6, 2), (2, 6)], ids=["wide_in", "wide_out"])
def test_conv_same_result_for_channels_last_view_and_contiguous_copy(c, co):
    # conv2d must not depend on its input's memory layout: a channels-last
    # view of a channels-first array gives what a contiguous copy gives.
    rng = rng_for(300 + c)
    x_cl = rng.normal(size=(2, 3, 4, c))
    k = rng.normal(size=(co, c, 3, 3))
    probe = channels_last(rng.normal(size=(2, co, 3, 4)))
    results = []
    for xd in (np.ascontiguousarray(x_cl.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1), x_cl):
        x, kt = Tensor(xd, requires_grad=True), Tensor(k, requires_grad=True)
        out = K.conv2d(x, kt)
        ad.tsum(ad.mul(out, probe)).backward()
        results.append((out.data, x.grad, kt.grad))
    (view_out, view_dx, view_dk), (copy_out, copy_dx, copy_dk) = results
    np.testing.assert_allclose(view_out, copy_out, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(view_dx, copy_dx, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(view_dk, copy_dk, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(
        copy_out, channels_last(conv_reference(x_cl.transpose(0, 3, 1, 2), k)), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("seed", range(3))
def test_conv_bn_relu_grads_match_finite_differences(seed):
    rng = rng_for(200 + seed)
    x = Tensor(channels_last(rng.normal(size=(1, 2, 6, 6))), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 2, 3, 3)) * 0.3, requires_grad=True)
    bn = batch_norm(4)
    probe = channels_last(rng.normal(size=(1, 4, 6, 6)))

    def f():
        return ad.tsum(ad.mul(K.conv_bn_relu(x, k, *bn, training=True), probe))

    assert K.grad_check(f, [x, k, *bn[:2]], h=H_STEP) < TOL


def test_bn_relu_training_matches_numpy_reference():
    rng = rng_for(210)
    y = rng.normal(size=(3, 4, 5, 6)) * rng.uniform(0.5, 3.0, size=6) + rng.normal(size=6)
    gamma, beta, running_mean, running_var = bn = batch_norm(6)
    gamma.data[:] = rng.uniform(0.5, 2.0, size=6)
    beta.data[:] = rng.normal(size=6)
    running_mean[:] = rng.normal(size=6)
    running_var[:] = rng.uniform(0.5, 2.0, size=6)
    rm0, rv0 = running_mean.copy(), running_var.copy()
    out = K.bn_relu(Tensor(y), *bn, training=True)

    # Direct per-channel reference over the (B, H, W) cells of each channel.
    cells = y.reshape(-1, 6)
    mean = cells.sum(axis=0) / cells.shape[0]
    var = ((cells - mean) ** 2).sum(axis=0) / cells.shape[0]
    want = np.maximum((y - mean) / np.sqrt(var + 1e-5) * gamma.data + beta.data, 0.0)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(running_mean, 0.9 * rm0 + 0.1 * mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(running_var, 0.9 * rv0 + 0.1 * var, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_conv_bn_relu_eval_grads_match_finite_differences(seed):
    # Eval mode with running statistics far from (0, 1), so the folded
    # scale and shift differ from gamma and beta.
    rng = rng_for(220 + seed)
    x = Tensor(channels_last(rng.normal(size=(2, 2, 4, 6))), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 2, 3, 3)) * 0.3, requires_grad=True)
    gamma, beta, running_mean, running_var = bn = batch_norm(4)
    gamma.data[:] = rng.uniform(0.5, 2.0, size=4)
    beta.data[:] = rng.normal(size=4) * 0.3
    running_mean[:] = rng.normal(size=4) * 0.5
    running_var[:] = rng.uniform(0.3, 3.0, size=4)
    probe = channels_last(rng.normal(size=(2, 4, 4, 6)))

    def f():
        return ad.tsum(ad.mul(K.conv_bn_relu(x, k, *bn, training=False), probe))

    assert K.grad_check(f, [x, k, gamma, beta], h=H_STEP) < TOL


def test_maxpool_tie_routes_gradient_to_first_cell():
    # A constant window has four maxima; the gradient goes to its first cell
    # in row-major order, separately in every channel.
    x = Tensor(np.full((2, 4, 6, 3), 2.5), requires_grad=True)
    probe = rng_for(310).normal(size=(2, 2, 3, 3))
    ad.tsum(ad.mul(K.maxpool2(x), probe)).backward()
    want = np.zeros((2, 4, 6, 3))
    want[:, ::2, ::2] = probe
    assert np.array_equal(x.grad, want)


def test_maxpool_constant_and_single_window():
    x = Tensor(np.full((1, 4, 4, 1), 2.5))
    assert np.array_equal(K.maxpool2(x).data, np.full((1, 2, 2, 1), 2.5))
    y = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]).transpose(1, 2, 0)[None])
    assert K.maxpool2(y).data.reshape(()) == 4.0


def test_maxpool_odd_dims_fail():
    with pytest.raises(ValueError, match="even"):
        K.maxpool2(Tensor(np.zeros((1, 3, 4, 1))))


@pytest.mark.parametrize("seed", range(3))
def test_maxpool_grad_is_one_hot_and_matches_fd(seed):
    rng = rng_for(300 + seed)
    x = Tensor(channels_last(rng.normal(size=(1, 1, 4, 4))), requires_grad=True)
    probe = channels_last(rng.normal(size=(1, 1, 2, 2)))

    def f():
        return ad.tsum(ad.mul(K.maxpool2(x), probe))

    assert K.grad_check(f, [x], h=1e-5) < TOL
    x.zero_grad()
    f().backward()
    windows = x.grad.reshape(2, 2, 2, 2)
    assert all(np.count_nonzero(windows[i, :, j, :]) == 1 for i in range(2) for j in range(2))


def test_deconv_broadcasts_single_value():
    x = Tensor(np.array([[[[3.0]]]]))
    k = Tensor(np.ones((1, 1, 2, 2)))
    assert np.array_equal(K.deconv2(x, k).data, np.full((1, 2, 2, 1), 3.0))


def test_deconv_zero_input_zero_output():
    out = K.deconv2(Tensor(np.zeros((1, 3, 3, 2))), Tensor(rng_for(6).normal(size=(2, 5, 2, 2))))
    assert np.array_equal(out.data, np.zeros((1, 6, 6, 5)))


@pytest.mark.parametrize("seed", range(3))
def test_deconv_grads_match_finite_differences(seed):
    rng = rng_for(400 + seed)
    x = Tensor(channels_last(rng.normal(size=(1, 2, 3, 3))), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
    probe = channels_last(rng.normal(size=(1, 3, 6, 6)))

    def f():
        return ad.tsum(ad.mul(K.deconv2(x, k), probe))

    assert K.grad_check(f, [x, k], h=H_STEP) < TOL


def test_pool_deconv_shape_round_trip():
    rng = rng_for(7)
    x = Tensor(channels_last(rng.normal(size=(1, 2, 8, 6))))
    k = Tensor(rng.normal(size=(2, 2, 2, 2)))
    assert K.deconv2(K.maxpool2(x), k).data.shape == (1, 8, 6, 2)


# ---------------------------------------------------------------------------
# linear


def test_linear_identity_and_bias():
    x = Tensor(rng_for(8).normal(size=(4, 3)))
    out = K.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, x.data)
    out_b = K.linear(Tensor(np.zeros((2, 3))), Tensor(np.eye(3)), Tensor(np.array([1.0, 2.0, 3.0])))
    assert np.allclose(out_b.data, np.tile([1.0, 2.0, 3.0], (2, 1)))


def test_linear_dim_mismatch_fails():
    with pytest.raises(ValueError, match="inner"):
        K.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


@pytest.mark.parametrize("seed", range(3))
def test_linear_grads_match_finite_differences(seed):
    rng = rng_for(500 + seed)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    probe = rng.normal(size=(2, 3, 2))

    def f():
        return ad.tsum(ad.mul(K.linear(x, w, b), probe))

    assert K.grad_check(f, [x, w, b], h=H_STEP) < TOL


# ---------------------------------------------------------------------------
# weighted cross-entropy


def test_wce_confident_correct_is_near_zero():
    logits = Tensor(np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]]))
    loss = K.weighted_cross_entropy(logits, [0, 1], [1.0, 1.0, 1.0])
    assert loss.item() < 1e-8


def test_wce_uniform_logits_is_ln3():
    logits = Tensor(np.zeros((4, 3)))
    loss = K.weighted_cross_entropy(logits, [0, 0, 0, 0], [1.0, 1.0, 1.0])
    assert math.isclose(loss.item(), math.log(3.0), rel_tol=1e-12)


def test_wce_weighted_single_cell():
    # weights (1, 5, 5), one Substitute cell, uniform logits -> 5 * ln 3
    logits = Tensor(np.zeros((1, 3)))
    loss = K.weighted_cross_entropy(logits, [1], [1.0, 5.0, 5.0])
    assert math.isclose(loss.item(), 5.0 * math.log(3.0), rel_tol=1e-12)


def test_wce_all_masked_fails():
    with pytest.raises(ValueError, match="masked"):
        K.weighted_cross_entropy(Tensor(np.zeros((2, 3))), [0, 0], [1, 1, 1], mask=[False, False])


def test_wce_mask_excludes_cells():
    logits = Tensor(rng_for(9).normal(size=(3, 3)))
    full = K.weighted_cross_entropy(Tensor(logits.data[:2]), [0, 2], [1, 2, 3])
    masked = K.weighted_cross_entropy(logits, [0, 2, 1], [1, 2, 3], mask=[True, True, False])
    assert math.isclose(full.item(), masked.item(), rel_tol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_wce_grads_match_finite_differences(seed):
    rng = rng_for(600 + seed)
    logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    targets = rng.integers(0, 3, size=6)
    mask = np.array([True, True, False, True, True, True])

    def f():
        return K.weighted_cross_entropy(logits, targets, [1.0, 5.0, 5.0], mask=mask)

    assert K.grad_check(f, [logits], h=H_STEP) < TOL


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = K.AdamState.for_params([p])
    K.adam_step([p], [np.zeros(2)], state, lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_closed_form():
    g = np.array([0.3, -0.7, 2.0])
    p = Tensor(np.zeros(3), requires_grad=True)
    state = K.AdamState.for_params([p])
    K.adam_step([p], [g], state, lr=1e-3)
    expected = -1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, rtol=1e-9)


def test_adam_two_steps_match_scalar_reference():
    g = 0.5
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = K.AdamState.for_params([p])
    # Independent scalar reference iteration.
    m = v = 0.0
    theta = 0.0
    for step in (1, 2):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**step)
        vhat = v / (1 - 0.999**step)
        theta -= 1e-3 * mhat / (math.sqrt(vhat) + 1e-8)
        K.adam_step([p], [np.array([g])], state, lr=1e-3)
    assert math.isclose(p.data[0], theta, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# graph lifetime


def test_graph_is_freed_after_backward_without_the_collector():
    # Tensor has no __weakref__ slot, so the weakref watches the array of the
    # intermediate node; it dies only if nothing, cycles included, holds it.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        w = Tensor(rng_for(5).normal(size=(3, 3)), requires_grad=True)
        h = ad.matmul(w, w)
        watch = weakref.ref(h.data)
        loss = ad.tsum(ad.mul(h, h))
        loss.backward()
        assert w.grad is not None
        del h, loss
        assert watch() is None
    finally:
        if gc_was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# composite sanity: every op deterministic under a fixed seed


def test_ops_bitwise_deterministic():
    def run():
        rng = rng_for(77)
        x = Tensor(channels_last(rng.normal(size=(1, 2, 4, 4))), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        out = K.conv_bn_relu(x, k, *batch_norm(2), training=True)
        loss = ad.tsum(ad.mul(out, rng.normal(size=out.data.shape)))
        loss.backward()
        return loss.item(), x.grad.copy(), k.grad.copy()

    l1, gx1, gk1 = run()
    l2, gx2, gk2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gk1, gk2)


# ---------------------------------------------------------------------------
# grad_check preconditions


@pytest.mark.parametrize(
    "layout, found",
    [("channels_last_view", "strided float64"), ("float32", "C-contiguous float32")],
)
def test_grad_check_refuses_parameters_it_cannot_probe(layout, found):
    # A strided view is probed through a copy the computation never reads
    # (every numeric gradient 0, rel-err 1.0), and float32 cannot resolve a
    # ±1e-4 difference; either is refused, naming the parameter.
    rng = rng_for(21)
    nchw = rng.normal(size=(1, 2, 4, 4))
    if layout == "channels_last_view":
        xd = nchw.transpose(0, 2, 3, 1)
    else:
        xd = channels_last(nchw).astype(np.float32)
    x = Tensor(xd, requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    probe = rng.normal(size=(1, 4, 4, 3))

    def f():
        return ad.tsum(ad.mul(K.conv2d(x, k), probe))

    with pytest.raises(ValueError, match=rf"parameter 1 of shape \(1, 4, 4, 2\) is {found}"):
        K.grad_check(f, [k, x])
    x.data = np.ascontiguousarray(xd, dtype=np.float64)
    assert K.grad_check(f, [k, x], h=H_STEP) < TOL

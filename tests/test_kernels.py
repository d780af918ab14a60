"""Gradient and contract checks for the differentiable kernels.

Every differentiable op is validated against central finite differences
(the independent oracle): h = 1e-4, 64-bit floats, rel-err < 1e-3.
"""

import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from _grad_check import grad_check
from _weights import batch_norm, bilstm_weights, probe_loss

from editseg import autodiff as ad
from editseg import kernels as K
from editseg.autodiff import Tensor
from editseg.model import ModelConfig, RewriteModel, encoding_layer

TOL = 1e-3
H_STEP = 1e-4


def rng_for(seed):
    return np.random.default_rng(seed)


def channels_last(a):
    """(B, C, H, W) -> contiguous (B, H, W, C), the layout the spatial ops take."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


# ---------------------------------------------------------------------------
# bidirectional LSTM over an embedding table


def as_table(x, requires_grad=False):
    """A (B·L, E) table of the rows of a (B, L, E) array, and the (B, L) ids
    that read them back: every position has its own id, so the LSTM sees x,
    and the table's gradient reshaped to (B, L, E) is x's."""
    B, L, E = x.shape
    return Tensor(x.reshape(B * L, E).copy(), requires_grad=requires_grad), np.arange(B * L).reshape(B, L)


def test_lstm_gathers_its_steps_from_the_table():
    rng = rng_for(0)
    fwd, bwd = bilstm_weights(rng, 3, 2)
    table = Tensor(rng.normal(size=(4, 3)))
    ids = np.array([[2, 0, 3]])
    out = K.lstm(table, ids, fwd, bwd, [3])
    gathered, own_ids = as_table(table.data[ids])
    assert np.array_equal(out.data, K.lstm(gathered, own_ids, fwd, bwd, [3]).data)


def test_repeated_ids_sum_their_gradients_into_one_row():
    rng = rng_for(1)
    fwd, bwd = bilstm_weights(rng, 3, 2)
    table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    ids = np.array([[1, 1, 3]])
    probe = rng.normal(size=(1, 3, 4))
    probe_loss(K.lstm(table, ids, fwd, bwd, [3]), probe).backward()
    gathered, own_ids = as_table(table.data[ids], requires_grad=True)
    probe_loss(K.lstm(gathered, own_ids, fwd, bwd, [3]), probe).backward()
    g = gathered.grad
    assert np.array_equal(table.grad, np.stack([np.zeros(3), g[0] + g[1], np.zeros(3), g[2]]))


def test_embedding_out_of_range_fails_with_index():
    fwd, bwd = bilstm_weights(rng_for(2), 3, 2)
    with pytest.raises(IndexError, match="7"):
        K.lstm(Tensor(np.eye(3)), [[0, 7]], fwd, bwd, [2])


@pytest.mark.parametrize("seed", range(3))
def test_embedding_grad_matches_finite_differences(seed):
    rng = rng_for(seed)
    fwd, bwd = bilstm_weights(rng, 4, 3)
    table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    ids = np.array([[1, 1, 3]])
    probe = rng.normal(size=(1, 3, 6))

    def f():
        return probe_loss(K.lstm(table, ids, fwd, bwd, [3]), probe)

    assert grad_check(f, [table], h=H_STEP) < 1e-4


def test_padding_adds_nothing_to_the_padding_ids_row():
    # Padded positions read id 0 as the model pads them; with no real id 0,
    # its row's gradient must be exactly zero.
    rng = rng_for(3)
    fwd, bwd = bilstm_weights(rng, 3, 2)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([[1, 2, 3, 4], [5, 1, 0, 0], [2, 0, 0, 0]])
    out = K.lstm(table, ids, fwd, bwd, [4, 2, 1])
    probe_loss(out, rng.normal(size=out.data.shape)).backward()
    assert np.all(table.grad[0] == 0.0)
    assert np.all(table.grad[1:] != 0.0)


def shared_ids(rng, vocab, lengths):
    """Right-padded (B, max(lengths)) ids drawn from a few words, so ids
    repeat within and across sequences, and the padding id 0 is also read
    by a real step of the first sequence."""
    ids = np.zeros((len(lengths), max(lengths)), dtype=np.int64)
    for i, n in enumerate(lengths):
        ids[i, :n] = rng.integers(0, vocab, size=n)
    ids[0, 1] = 0
    return ids


@pytest.mark.parametrize("seed", range(2))
def test_repeated_ids_across_a_padded_batch_match_finite_differences(seed):
    # Each distinct id is projected once and its gate rows gathered to every
    # step that reads it, in both directions and across sequences.
    rng = rng_for(170 + seed)
    fwd, bwd = bilstm_weights(rng, 3, 4)
    for t in (*fwd, *bwd):
        t.data += rng.normal(size=t.data.shape) * 0.3
    lengths = [5, 2, 4]
    ids = shared_ids(rng, 4, lengths)
    assert np.unique(ids).size < ids.size
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    probe = rng.normal(size=(3, 5, 8))

    def f():
        return probe_loss(K.lstm(table, ids, fwd, bwd, lengths), probe)

    assert grad_check(f, [table, *fwd, *bwd], h=H_STEP) < TOL


def test_lstm_reads_a_flat_unique_inverse_as_numpy_1_returns_it(monkeypatch):
    # NumPy 2 shapes np.unique's inverse like the ids; NumPy 1.x returns it
    # flat. Both must give the same scan.
    rng = rng_for(175)
    fwd, bwd = bilstm_weights(rng, 3, 4)
    lengths = [5, 2, 4]
    ids = shared_ids(rng, 4, lengths)
    table = Tensor(rng.normal(size=(5, 3)))
    want = K.lstm(table, ids, fwd, bwd, lengths).data
    unique = np.unique

    def flat_inverse(a, **kwargs):
        distinct, inverse = unique(a, **kwargs)
        return distinct, inverse.ravel()

    monkeypatch.setattr(np, "unique", flat_inverse)
    assert np.array_equal(K.lstm(table, ids, fwd, bwd, lengths).data, want)


@pytest.mark.parametrize("E,H", [(32, 32), (100, 200)])
def test_repeated_ids_give_the_per_position_lstm_in_float32(E, H):
    # B = 16 with a 60-word table: most steps share their id with another.
    # The output and every gradient match the table with one row per
    # position, whose table gradient, added up by id, is the table's.
    table, fwd, bwd = model_lstm_weights(E, H)
    rng = rng_for(E + H)
    lengths = [40, 3, 17, 40, 1, 29, 8, 33, 40, 12, 25, 5, 38, 21, 2, 30]
    ids = shared_ids(rng, table.data.shape[0], lengths)
    assert np.unique(ids).size < 0.1 * ids.size
    per_position, own_ids = as_table(table.data[ids], requires_grad=True)
    apart = [[Tensor(w.data.copy(), requires_grad=True) for w in d] for d in (fwd, bwd)]
    probe = rng.normal(size=(16, 40, 2 * H)).astype(np.float32)
    out = K.lstm(table, ids, fwd, bwd, lengths)
    want = K.lstm(per_position, own_ids, *apart, lengths)
    np.testing.assert_allclose(out.data, want.data, rtol=1e-5, atol=1e-6)
    probe_loss(out, probe).backward()
    probe_loss(want, probe).backward()
    summed = np.zeros_like(table.data)
    np.add.at(summed, ids, per_position.grad.reshape(*ids.shape, E))
    wanted = [summed, *(w.grad for d in apart for w in d)]
    for got, ref in zip((table, *fwd, *bwd), wanted):
        np.testing.assert_allclose(got.grad, ref, rtol=1e-4, atol=1e-5 * np.abs(ref).max())


def test_bilstm_zero_params_zero_output():
    def zeros():
        return [Tensor(np.zeros(shape), requires_grad=True) for shape in ((4, 20), (5, 20), (20,))]

    table, ids = as_table(rng_for(1).normal(size=(3, 4))[None])
    out = K.lstm(table, ids, zeros(), zeros(), [3])
    assert np.array_equal(out.data, np.zeros((1, 3, 10)))


def test_bilstm_single_step_directions_agree():
    rng = rng_for(2)
    fwd, bwd = bilstm_weights(rng, 4, 5)
    table, ids = as_table(rng.normal(size=(1, 4))[None])
    out = K.lstm(table, ids, fwd, bwd, [1])
    assert out.data.shape == (1, 1, 10)
    # With one step, both directions see the same input through their own
    # weights; feeding the same params to both must duplicate the halves.
    out_same = K.lstm(table, ids, fwd, fwd, [1])
    assert np.allclose(out_same.data[0, 0, :5], out_same.data[0, 0, 5:])


@pytest.mark.parametrize("seed", range(3))
def test_bilstm_grads_match_finite_differences(seed):
    rng = rng_for(100 + seed)
    fwd, bwd = bilstm_weights(rng, 4, 5)
    table, ids = as_table(rng.normal(size=(3, 4))[None], requires_grad=True)
    probe = rng.normal(size=(3, 10))[None]

    def f():
        return probe_loss(K.lstm(table, ids, fwd, bwd, [3]), probe)

    assert grad_check(f, [table, *fwd, *bwd], h=H_STEP) < TOL


def test_masked_batch_matches_per_example():
    rng = rng_for(3)
    p = bilstm_weights(rng, 3, 4)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(2, 3))
    batch = np.zeros((2, 5, 3))
    batch[0] = a
    batch[1, :2] = b
    out = K.lstm(*as_table(batch), *p, [5, 2])
    out_a = K.lstm(*as_table(a[None]), *p, [5])
    out_b = K.lstm(*as_table(b[None]), *p, [2])
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
    table, ids = as_table(rng.normal(size=(3, 5, 3)), requires_grad=True)
    probe = rng.normal(size=(3, 5, 8))

    def f():
        return probe_loss(K.lstm(table, ids, fwd, bwd, lengths), probe)

    assert grad_check(f, [table, *fwd, *bwd], h=H_STEP) < TOL
    table.zero_grad()
    f().backward()
    x_grad = table.grad.reshape(3, 5, 3)
    assert np.all(x_grad[1, 2:] == 0.0) and np.all(x_grad[2, 4:] == 0.0)


def test_lstm_rejects_lengths_beyond_sequence():
    fwd, bwd = bilstm_weights(rng_for(9), 3, 2)
    with pytest.raises(ValueError, match="lengths"):
        K.lstm(*as_table(np.zeros((2, 4, 3))), fwd, bwd, [4, 5])


def lstm_reference(x, w_ih, w_hh, b, lengths, reverse):
    """Step-by-step LSTM in float64, one sequence at a time, with the logistic
    function written as 1 / (1 + exp(-z))."""

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    B, L, _ = x.shape
    H = w_hh.shape[0]
    out = np.zeros((B, L, H))
    for i in range(B):
        h, c = np.zeros(H), np.zeros(H)
        for t in range(lengths[i] - 1, -1, -1) if reverse else range(lengths[i]):
            z = x[i, t] @ w_ih + b + h @ w_hh
            c = sigmoid(z[H : 2 * H]) * c + sigmoid(z[:H]) * np.tanh(z[2 * H : 3 * H])
            h = out[i, t] = sigmoid(z[3 * H :]) * np.tanh(c)
    return out


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_matches_logistic_reference_in_float32(reverse):
    # The kernel's in-place gate arithmetic in float32 matches the textbook
    # float64 scan to float32 rounding; each case checks the output half of
    # one direction (forward states first, then backward).
    rng = rng_for(740)
    fwd, bwd = ([t.data + rng.normal(size=t.data.shape) for t in d] for d in bilstm_weights(rng, 6, 5))
    x = rng.normal(size=(3, 7, 6)) * 2.0
    lengths = [7, 3, 5]
    x32 = x.astype(np.float32)
    fwd32, bwd32 = ([Tensor(a.astype(np.float32)) for a in d] for d in (fwd, bwd))
    out = K.lstm(*as_table(x32), fwd32, bwd32, lengths)
    assert out.data.dtype == np.float32
    half, weights = (out.data[..., 5:], bwd32) if reverse else (out.data[..., :5], fwd32)
    want = lstm_reference(*(a.astype(np.float64) for a in (x32, *(t.data for t in weights))), lengths, reverse)
    np.testing.assert_allclose(half, want, rtol=1e-5, atol=1e-6)


def test_lstm_backward_half_is_forward_half_of_reversed_rows():
    # Both directions get the same weights, so the backward half must be the
    # forward half computed on each row reversed within its own length: a
    # wrong index in the stacked scan order shows here, on padded rows.
    rng = rng_for(760)
    fwd, _ = bilstm_weights(rng, 3, 4)
    for t in fwd:
        t.data += rng.normal(size=t.data.shape) * 0.3
    lengths = [5, 2, 4]
    xd = rng.normal(size=(3, 5, 3))
    rev = np.zeros_like(xd)
    for i, n in enumerate(lengths):
        xd[i, n:] = 0.0
        rev[i, :n] = xd[i, n - 1 :: -1]
    table, ids = as_table(xd, requires_grad=True)
    out = K.lstm(table, ids, fwd, fwd, lengths)
    out_rev = K.lstm(*as_table(rev), fwd, fwd, lengths)
    for i, n in enumerate(lengths):
        assert np.allclose(out.data[i, :n, 4:], out_rev.data[i, n - 1 :: -1, :4], rtol=0, atol=1e-12)
        assert np.all(out.data[i, n:] == 0.0)
    probe_loss(out, rng.normal(size=out.data.shape)).backward()
    for i, n in enumerate(lengths):
        assert np.all(table.grad.reshape(xd.shape)[i, n:] == 0.0)


def test_lstm_saturated_gates_stay_finite_without_warning():
    # A float32 preactivation of -150 overflows exp(-z) in the logistic
    # function; its limit 1 / (1 + inf) = 0 is exact, and no warning (an
    # error under the test settings) escapes the scan.
    E, H = 3, 2

    def saturated():
        return [
            Tensor(np.full((E, 4 * H), -50.0, dtype=np.float32), requires_grad=True),
            Tensor(np.zeros((H, 4 * H), dtype=np.float32), requires_grad=True),
            Tensor(np.zeros(4 * H, dtype=np.float32), requires_grad=True),
        ]

    table, ids = as_table(np.ones((2, 4, E), dtype=np.float32), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = K.lstm(table, ids, saturated(), saturated(), [4, 3])
        probe_loss(out, np.ones(out.data.shape, dtype=np.float32)).backward()
    assert np.all(np.isfinite(out.data)) and np.all(out.data == 0.0)
    assert np.all(np.isfinite(table.grad))


def model_lstm_weights(E, H):
    """A model's float32 embedding table (60 words) and each direction's LSTM
    weights, both ``w_hh`` halves of its one stacked buffer."""
    model = RewriteModel(ModelConfig(vocab_size=60, embed_dim=E, hidden_dim=H, base_channels=2), seed=0)
    t = model.tensors
    return t["embedding"], *([t[f"lstm.{d}.{w}"] for w in ("w_ih", "w_hh", "b")] for d in ("fwd", "bwd"))


@pytest.mark.parametrize("E,H", [(32, 32), (100, 200)])
@pytest.mark.parametrize("lengths", [[40], [40, 3, 17, 40, 1, 29, 8, 33, 40, 12, 25, 5, 38, 21, 2, 30]])
def test_lstm_without_a_graph_is_bitwise_the_graph_path(E, H, lengths):
    # Toy and paper dims, batch 1 and a mixed-length batch of 16, float32:
    # the history-free loop, the graph loop and the graph loop on weights
    # held apart (stacked per call) give the same bits.
    table, fwd, bwd = model_lstm_weights(E, H)
    ids = rng_for(E).integers(0, table.data.shape[0], size=(len(lengths), max(lengths)))
    graph = K.lstm(table, ids, fwd, bwd, lengths)
    assert graph.requires_grad
    with ad.no_grad():
        plain = K.lstm(table, ids, fwd, bwd, lengths)
    apart = [[Tensor(w.data.copy(), requires_grad=True) for w in d] for d in (fwd, bwd)]
    assert K.stacked_pair(apart[0][1].data, apart[1][1].data).base is None
    assert plain.data.dtype == np.float32 and not plain.requires_grad
    assert np.array_equal(plain.data, graph.data)
    assert np.array_equal(K.lstm(table, ids, *apart, lengths).data, graph.data)


def test_lstm_without_a_graph_holds_little_beyond_its_gates_states_and_output():
    # B = 16, L = 40 at paper dims. The arrays the scan must hold are the
    # (L, 2, B, 4H) gates, the (L + 1, 2, B, H) states and the (B, L, 2H)
    # output. The distinct ids' rows and projections are freed once the
    # gates are gathered, before the scan, so the peak is this sum plus
    # index arrays (1.1% here). Keeping the inputs through the scan read 1.09
    # times it, with or without a per-direction projection temporary, and a
    # scan that kept its BPTT history under no_grad 1.61.
    E, H, B, L = 100, 200, 16, 40
    table, fwd, bwd = model_lstm_weights(E, H)
    ids = rng_for(5).integers(0, table.data.shape[0], size=(B, L))
    must = 4 * (L * 2 * B * 4 * H + (L + 1) * 2 * B * H + B * L * 2 * H)
    with ad.no_grad():
        tracemalloc.start()
        try:
            K.lstm(table, ids, fwd, bwd, [L] * B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.03 * must, (peak, must)


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
        return probe_loss(K.conv2d(x, k), probe)

    assert grad_check(f, [x, k], h=H_STEP) < TOL


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
        probe_loss(out, probe).backward()
        results.append((out.data, x.grad, kt.grad))
    (view_out, view_dx, view_dk), (copy_out, copy_dx, copy_dk) = results
    np.testing.assert_allclose(view_out, copy_out, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(view_dx, copy_dx, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(view_dk, copy_dk, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(
        copy_out, channels_last(conv_reference(x_cl.transpose(0, 3, 1, 2), k)), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("c, co", [(3, 5), (4, 4), (6, 2)], ids=["im2col", "im2col_equal", "kn2row"])
def test_conv_stored_kernel_bitwise_equals_contiguous_copy(c, co):
    # kernel_storage hands conv2d its GEMM operand without a copy; a
    # C-contiguous kernel is copied into the same operand, so both give the
    # same bits, and the kernel gradient comes out in the stored memory order.
    rng = rng_for(700 + c)
    xd = rng.normal(size=(2, 4, 5, c)).astype(np.float32)
    k = rng.normal(size=(co, c, 3, 3)).astype(np.float32)
    probe = rng.normal(size=(2, 4, 5, co)).astype(np.float32)
    stored = K.kernel_storage(k)
    assert np.array_equal(stored, k) and not stored.flags.c_contiguous
    operand = K._im2col_rows if K._uses_im2col(k) else K._reversed_taps
    assert np.shares_memory(operand(stored), stored)
    results = []
    for kd in (stored, k):
        x, kt = Tensor(xd, requires_grad=True), Tensor(kd, requires_grad=True)
        out = K.conv2d(x, kt)
        probe_loss(out, probe).backward()
        results.append((out.data, x.grad, kt.grad))
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    assert results[0][2].strides == stored.strides


# Masks of padded batches. "ragged": each example's real cells are its own
# top-left rectangle of the batch's grid, as the model pads; "irregular":
# any set of cells. Odd sides put partial windows on the pooled levels.
def conv_mask(kind, rng):
    if kind == "ragged":
        mask = np.zeros((3, 5, 7), dtype=bool)
        for b, (m, n) in enumerate([(5, 7), (3, 4), (1, 6)]):
            mask[b, :m, :n] = True
        return mask
    return rng.random((2, 5, 7)) < 0.6


def on_sites(image, sites, requires_grad=False):
    """The rows of a (B, H, W, C) ``image`` at ``sites``' real pixels, as a
    tensor on those sites; the image off the mask is never read."""
    rows = image.reshape(-1, image.shape[-1])
    return Tensor(rows if sites.real is None else rows[sites.real], requires_grad=requires_grad, sites=sites)


def as_image(rows, sites):
    """Rows on ``sites`` as their (B, H, W, C) image, zero off the mask."""
    return K.to_grid(Tensor(rows, sites=sites)).data


CONV_SIDES = pytest.mark.parametrize("c, co", [(3, 5), (6, 2)], ids=["im2col", "kn2row"])


def conv_results(xd, k, probe, mask):
    """conv2d's output, input gradient and kernel gradient through ``probe``,
    each as an image. With a ``mask`` (or the ``Sites`` built from one) the
    conv runs on the real cells' rows, and its output and input gradient
    are scattered to the grid, zero off the mask."""
    kt = Tensor(k.copy(), requires_grad=True)
    if mask is None:
        x = Tensor(xd.copy(), requires_grad=True)
        out = K.conv2d(x, kt)
        probe_loss(out, probe).backward()
        return out.data, x.grad, kt.grad
    sites = mask if isinstance(mask, K.Sites) else K.Sites(mask.shape, mask)
    x = on_sites(xd.copy(), sites, requires_grad=True)
    out = K.to_grid(K.conv2d(x, kt))
    probe_loss(out, probe).backward()
    return out.data, as_image(x.grad, sites), kt.grad


@CONV_SIDES
@pytest.mark.parametrize("kind", ["ragged", "irregular"])
def test_masked_conv_equals_dense_conv_on_real_cells(c, co, kind):
    # Where the image is zero off the mask, as the U-Net's zero ring and
    # padding are, the convolution over the real cells' rows gives the
    # dense one's values on them, and the dense one's gradients.
    rng = rng_for(800 + c)
    mask = conv_mask(kind, rng)
    xd = rng.normal(size=mask.shape + (c,)) * mask[..., None]
    k = rng.normal(size=(co, c, 3, 3))
    probe = rng.normal(size=mask.shape + (co,)) * mask[..., None]
    dense_out, dense_dx, dense_dk = conv_results(xd, k, probe, None)
    out, dx, dk = conv_results(xd, k, probe, mask)
    np.testing.assert_allclose(out[mask], dense_out[mask], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dx[mask], dense_dx[mask], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dk, dense_dk, rtol=1e-12, atol=1e-12)


@CONV_SIDES
@pytest.mark.parametrize("kind", ["ragged", "irregular"])
def test_masked_conv_output_and_input_gradient_are_zero_off_the_mask(c, co, kind):
    # Even where the image and the output gradient are not zero there: the
    # rows hold the real cells alone, so nothing off the mask is read.
    rng = rng_for(820 + c)
    mask = conv_mask(kind, rng)
    xd = rng.normal(size=mask.shape + (c,))
    k = rng.normal(size=(co, c, 3, 3))
    probe = rng.normal(size=mask.shape + (co,))
    out, dx, dk = conv_results(xd, k, probe, mask)
    assert not out[~mask].any() and out[mask].all()
    assert not dx[~mask].any()
    zeroed = conv_results(xd * mask[..., None], k, probe * mask[..., None], mask)
    for got, want in zip((out, dx, dk), zeroed):
        assert np.array_equal(got, want)


@CONV_SIDES
@pytest.mark.parametrize("kind", ["ragged", "irregular"])
def test_masked_conv_grads_match_finite_differences(c, co, kind):
    rng = rng_for(840 + c)
    mask = conv_mask(kind, rng)
    sites = K.Sites(mask.shape, mask)
    x = on_sites(rng.normal(size=mask.shape + (c,)), sites, requires_grad=True)
    k = Tensor(rng.normal(size=(co, c, 3, 3)), requires_grad=True)
    probe = rng.normal(size=(sites.n, co))

    def f():
        return probe_loss(K.conv2d(x, k), probe)

    assert grad_check(f, [x, k], h=H_STEP) < TOL


@CONV_SIDES
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_true_mask_is_bitwise_no_mask(c, co, dtype):
    # The rows of an all-True mask's sites are a dense image's rows.
    rng = rng_for(860 + c)
    xd = rng.normal(size=(2, 5, 3, c)).astype(dtype)
    k = rng.normal(size=(co, c, 3, 3)).astype(dtype)
    probe = rng.normal(size=(2, 5, 3, co)).astype(dtype)
    everywhere = np.ones((2, 5, 3), dtype=bool)
    for got, want in zip(conv_results(xd, k, probe, everywhere), conv_results(xd, k, probe, None)):
        assert got.dtype == dtype and np.array_equal(got, want)


def test_conv_takes_a_levels_sites_as_its_mask():
    # The model builds each level's Sites once, and its rows carry them.
    rng = rng_for(880)
    mask = conv_mask("ragged", rng)
    xd, k, probe = rng.normal(size=mask.shape + (3,)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=mask.shape + (4,))
    sites = K.Sites(mask.shape, mask)
    for got, want in zip(conv_results(xd, k, probe, sites), conv_results(xd, k, probe, mask)):
        assert np.array_equal(got, want)
    out = K.conv2d(on_sites(xd, sites), Tensor(k))
    assert out.sites is sites and out.data.shape == (mask.sum(), 4)
    with pytest.raises(ValueError, match="rows"):
        K.conv2d(Tensor(xd[mask][:-1], sites=sites), Tensor(k))


@pytest.mark.parametrize("seed", range(3))
def test_conv_bn_relu_grads_match_finite_differences(seed):
    rng = rng_for(200 + seed)
    x = Tensor(channels_last(rng.normal(size=(1, 2, 6, 6))), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 2, 3, 3)) * 0.3, requires_grad=True)
    bn = batch_norm(4)
    probe = channels_last(rng.normal(size=(1, 4, 6, 6)))

    def f():
        return probe_loss(K.conv_bn_relu(x, k, *bn, training=True), probe)

    assert grad_check(f, [x, k, *bn[:2]], h=H_STEP) < TOL


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


def padded_mask():
    """(3, 4, 5) real-cell flags of three examples padded differently: the
    whole grid, a 2 x 3 region and a 3 x 1 one."""
    mask = np.zeros((3, 4, 5), dtype=bool)
    mask[0] = True
    mask[1, :2, :3] = True
    mask[2, :3, :1] = True
    return mask


def test_masked_bn_relu_takes_statistics_over_real_cells_only():
    # A padded batch's BN-ReLU runs on its real cells' rows; the padding,
    # which would swamp every statistic it entered, is never read.
    rng = rng_for(211)
    mask = padded_mask()
    sites = K.Sites(mask.shape, mask)
    y = rng.normal(size=(3, 4, 5, 6)) * rng.uniform(0.5, 3.0, size=6) + rng.normal(size=6)
    y[~mask] = 1e3
    gamma, beta, running_mean, running_var = bn = batch_norm(6)
    gamma.data[:] = rng.uniform(0.5, 2.0, size=6)
    beta.data[:] = rng.normal(size=6)
    out = K.bn_relu(on_sites(y, sites), *bn, training=True)
    assert out.sites is sites

    cells = y[mask]
    mean = cells.mean(axis=0)
    var = ((cells - mean) ** 2).mean(axis=0)
    want = np.maximum((cells - mean) / np.sqrt(var + 1e-5) * gamma.data + beta.data, 0.0)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(running_mean, 0.1 * mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(running_var, 0.9 + 0.1 * var, rtol=1e-12, atol=1e-12)
    evaluated = K.bn_relu(on_sites(y, sites), *bn, training=False)
    image = K.to_grid(evaluated).data
    assert not image[~mask].any() and image[mask].any()


@pytest.mark.parametrize("seed", range(3))
def test_masked_bn_relu_training_grads_match_finite_differences(seed):
    rng = rng_for(230 + seed)
    mask = padded_mask()
    sites = K.Sites(mask.shape, mask)
    y = on_sites(rng.normal(size=(3, 4, 5, 4)), sites, requires_grad=True)
    gamma, beta, _, _ = bn = batch_norm(4)
    gamma.data[:] = rng.uniform(0.5, 2.0, size=4)
    beta.data[:] = rng.normal(size=4) * 0.3
    probe = rng.normal(size=(sites.n, 4))

    def f():
        return probe_loss(K.bn_relu(y, *bn, training=True), probe)

    assert y.data.dtype == np.float64
    assert grad_check(f, [y, gamma, beta], h=H_STEP) < TOL
    y.zero_grad()
    f().backward()
    assert np.all(np.abs(y.grad).sum(axis=1) > 0)


def test_bn_relu_training_without_mask_is_an_all_true_mask():
    """A dense image and the rows of an all-True mask's sites take the same
    statistics, bit for bit, in the model's float32: there is one formula,
    not one per case."""
    rng = rng_for(240)
    y = (rng.normal(size=(2, 5, 7, 4)) * 3.0 + 1.0).astype(np.float32)
    probe = rng.normal(size=y.shape).astype(np.float32)
    everywhere = K.Sites(y.shape[:3], np.ones(y.shape[:3], dtype=bool))
    runs = []
    for yt in (Tensor(y.copy(), requires_grad=True), on_sites(y.copy(), everywhere, requires_grad=True)):
        gamma = Tensor(np.linspace(0.5, 2.0, 4, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.full(4, 0.1, dtype=np.float32), requires_grad=True)
        stats = np.zeros(4, np.float32), np.ones(4, np.float32)
        out = K.bn_relu(yt, gamma, beta, *stats, training=True)
        probe_loss(out, probe.reshape(out.data.shape)).backward()
        runs.append((out.data.reshape(-1, 4), *stats, yt.grad.reshape(-1, 4), gamma.grad))
    for dense, rows in zip(*runs):
        assert dense.dtype == np.float32
        assert np.array_equal(dense, rows)


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
        return probe_loss(K.conv_bn_relu(x, k, *bn, training=False), probe)

    assert grad_check(f, [x, k, gamma, beta], h=H_STEP) < TOL


def test_maxpool_tie_routes_gradient_to_first_cell():
    # A constant window has four maxima; the gradient goes to its first cell
    # in row-major order, separately in every channel.
    x = Tensor(np.full((2, 4, 6, 3), 2.5), requires_grad=True)
    probe = rng_for(310).normal(size=(2, 2, 3, 3))
    probe_loss(K.maxpool2(x), probe).backward()
    want = np.zeros((2, 4, 6, 3))
    want[:, ::2, ::2] = probe
    assert np.array_equal(x.grad, want)


def test_maxpool_constant_and_single_window():
    x = Tensor(np.full((1, 4, 4, 1), 2.5))
    assert np.array_equal(K.maxpool2(x).data, np.full((1, 2, 2, 1), 2.5))
    y = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]).transpose(1, 2, 0)[None])
    assert K.maxpool2(y).data.reshape(()) == 4.0


@pytest.mark.parametrize("seed", range(3))
def test_maxpool_grad_is_one_hot_and_matches_fd(seed):
    rng = rng_for(300 + seed)
    x = Tensor(channels_last(rng.normal(size=(1, 1, 4, 4))), requires_grad=True)
    probe = channels_last(rng.normal(size=(1, 1, 2, 2)))

    def f():
        return probe_loss(K.maxpool2(x), probe)

    assert grad_check(f, [x], h=1e-5) < TOL
    x.zero_grad()
    f().backward()
    windows = x.grad.reshape(2, 2, 2, 2)
    assert all(np.count_nonzero(windows[i, :, j, :]) == 1 for i in range(2) for j in range(2))


def maxpool_reference(x, g):
    """Max pooling with the window on its own axis: the output and the
    gradient ``g`` routed to each window's first argmax. An odd side is
    padded with -inf, which no window takes as its maximum."""
    B, H, W, C = x.shape
    h, w = -(-H // 2), -(-W // 2)
    p = np.full((B, 2 * h, 2 * w, C), -np.inf)
    p[:, :H, :W] = x
    r = p.reshape(B, h, 2, w, 2, C).transpose(0, 1, 3, 5, 2, 4).reshape(B, h, w, C, 4)
    idx = r.argmax(axis=4)[..., None]
    dr = np.zeros_like(r)
    np.put_along_axis(dr, idx, g[..., None], axis=4)
    dx = dr.reshape(B, h, w, C, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(B, 2 * h, 2 * w, C)
    return np.take_along_axis(r, idx, axis=4)[..., 0], dx[:, :H, :W]


@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
def test_maxpool_matches_argmax_reference(ties):
    rng = rng_for(730)
    xd = rng.normal(size=(2, 6, 8, 3))
    if ties:
        xd = np.round(xd)  # integers: many windows hold their maximum twice
    x = Tensor(xd, requires_grad=True)
    probe = rng.normal(size=(2, 3, 4, 3))
    out = K.maxpool2(x)
    probe_loss(out, probe).backward()
    want_out, want_dx = maxpool_reference(xd, probe)
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(x.grad, want_dx)
    tied = (xd.reshape(2, 3, 2, 4, 2, 3) == want_out[:, :, None, :, None]).sum(axis=(2, 4))
    assert np.any(tied > 1) == ties


@pytest.mark.parametrize("shape", [(2, 5, 8, 3), (2, 6, 7, 3), (1, 7, 5, 2), (1, 1, 1, 2), (1, 0, 3, 2)])
def test_maxpool_odd_sides_match_argmax_reference(shape):
    # An odd side ends in a window of one row or column: ceil(H/2) x ceil(W/2)
    # windows, each the maximum of the cells it has.
    rng = rng_for(731)
    xd = np.round(rng.normal(size=shape) * 2)  # ties in full and partial windows
    x = Tensor(xd, requires_grad=True)
    out = K.maxpool2(x)
    probe = rng.normal(size=out.data.shape)
    probe_loss(out, probe).backward()
    want_out, want_dx = maxpool_reference(xd, probe)
    assert out.data.shape == (shape[0], -(-shape[1] // 2), -(-shape[2] // 2), shape[3])
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(x.grad, want_dx)


@pytest.mark.parametrize("seed", range(3))
def test_maxpool_odd_sides_grads_match_finite_differences(seed):
    rng = rng_for(320 + seed)
    x = Tensor(rng.normal(size=(1, 5, 3, 2)), requires_grad=True)
    probe = rng.normal(size=(1, 3, 2, 2))

    def f():
        return probe_loss(K.maxpool2(x), probe)

    assert grad_check(f, [x], h=1e-5) < TOL


def test_maxpool_partial_window_routes_gradient_to_first_maximum():
    # On a 5 x 3 image, row 4 pools in windows of one row (two cells, then
    # the corner alone) and column 2 in windows of one column. The partial
    # windows but the corner hold their maximum twice; the gradient goes to
    # the first in row-major order.
    xd = np.zeros((1, 5, 3, 1))
    xd[0, 4, :2, 0] = 7.0  # bottom windows: (4, 0) and (4, 1) tie
    xd[0, :2, 2, 0] = 5.0  # right window of rows 0-1: (0, 2) and (1, 2) tie
    xd[0, 4, 2, 0] = -1.0  # the corner window, a single cell
    x = Tensor(xd, requires_grad=True)
    out = K.maxpool2(x)
    assert out.data[0, :, :, 0].tolist() == [[0.0, 5.0], [0.0, 0.0], [7.0, -1.0]]
    probe = np.arange(1.0, 7.0).reshape(1, 3, 2, 1)
    probe_loss(out, probe).backward()
    want = np.zeros((1, 5, 3, 1))
    want[0, 0, 0] = 1.0  # full windows of zeros: their first cell
    want[0, 2, 0] = 3.0
    want[0, 2, 2] = 4.0  # rows 2-3 of the last column: a tie of zeros
    want[0, 0, 2] = 2.0
    want[0, 4, 0] = 5.0
    want[0, 4, 2] = 6.0
    assert np.array_equal(x.grad, want)


def test_pooled_sites_flag_windows_with_a_real_cell():
    mask = np.zeros((2, 5, 3), dtype=bool)
    mask[0, :3, :1] = True  # a 3 x 1 real region
    mask[1, :5, :3] = True
    sites = K.Sites(mask.shape, mask)
    pooled = sites.pooled()
    assert pooled is sites.pooled() and pooled.mask.dtype == np.bool_
    assert pooled.mask[0].tolist() == [[True, False], [True, False], [False, False]]
    assert pooled.mask[1].all()
    # Example 0's windows hold rows 0-1 and row 2; example 1's six windows
    # start at row 3, and its bottom and right ones are partial. A missing
    # cell repeats its window's first real one.
    assert pooled.n == 8 and pooled.cells.shape == (4, 8)
    assert pooled.cells.T[:3].tolist() == [[0, 0, 1, 0], [2, 2, 2, 2], [3, 4, 6, 7]]
    assert pooled.cells.T[-1].tolist() == [17] * 4
    # Slot s·n' + w of each real pixel: cells 0 and 2 of window 0, cell 0 of window 1.
    assert pooled.slots[:3].tolist() == [0, 16, 1]


def test_maxpool_on_rows_matches_argmax_reference_over_real_cells():
    # The rows of a padded batch with odd sides: ties in full, partial and
    # padded windows. The pooled rows are the real windows' maxima over
    # their real cells, and the gradient goes to each one's first maximal
    # real cell in row-major window order, as on the example's own grid.
    rng = rng_for(732)
    mask = conv_mask("ragged", rng)
    sites = K.Sites(mask.shape, mask)
    xd = np.round(rng.normal(size=mask.shape + (2,)) * 2)
    x = on_sites(xd, sites, requires_grad=True)
    out = K.maxpool2(x)
    coarse = sites.pooled()
    assert out.sites is coarse and out.data.shape == (coarse.n, 2)
    probe = rng.normal(size=out.data.shape)
    probe_loss(out, probe).backward()
    want_out, want_dx = maxpool_reference(np.where(mask[..., None], xd, -np.inf), as_image(probe, coarse))
    assert np.array_equal(as_image(out.data, coarse), np.where(coarse.mask[..., None], want_out, 0.0))
    assert np.array_equal(as_image(x.grad, sites), want_dx)

    xf = on_sites(rng.normal(size=mask.shape + (2,)), sites, requires_grad=True)
    assert grad_check(lambda: probe_loss(K.maxpool2(xf), probe), [xf], h=1e-5) < TOL


def no_skip(x):
    """A zero-channel skip on the full (2H, 2W) grid: ``deconv2`` then gives
    the plain transposed convolution, uncropped."""
    B, H, W, _ = x.data.shape
    return Tensor(np.zeros((B, 2 * H, 2 * W, 0)))


def test_deconv_broadcasts_single_value():
    x = Tensor(np.array([[[[3.0]]]]))
    k = Tensor(np.ones((1, 1, 2, 2)))
    assert np.array_equal(K.deconv2(x, k, no_skip(x)).data, np.full((1, 2, 2, 1), 3.0))


def test_deconv_zero_input_zero_output():
    x = Tensor(np.zeros((1, 3, 3, 2)))
    out = K.deconv2(x, Tensor(rng_for(6).normal(size=(2, 5, 2, 2))), no_skip(x))
    assert np.array_equal(out.data, np.zeros((1, 6, 6, 5)))


@pytest.mark.parametrize("seed", range(3))
def test_deconv_grads_match_finite_differences(seed):
    rng = rng_for(400 + seed)
    x = Tensor(channels_last(rng.normal(size=(1, 2, 3, 3))), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
    skip = Tensor(rng.normal(size=(1, 6, 6, 2)), requires_grad=True)
    probe = rng.normal(size=(1, 6, 6, 5))

    def f():
        return probe_loss(K.deconv2(x, k, skip), probe)

    assert grad_check(f, [x, k, skip], h=H_STEP) < TOL
    # The skip is copied into the last channels and gets their gradient.
    skip.zero_grad()
    out = K.deconv2(x, k, skip)
    probe_loss(out, probe).backward()
    assert np.array_equal(out.data[..., 3:], skip.data)
    assert np.array_equal(skip.grad, probe[..., 3:])


@pytest.mark.parametrize("seed", range(3))
def test_cropped_masked_deconv_grads_match_finite_differences(seed):
    # Rows of a 5 x 3 skip grid pooled to 3 x 2 (6 x 4 uncropped), with one
    # example's real region 3 x 2 and the other's all of it.
    rng = rng_for(410 + seed)
    mask = np.zeros((2, 5, 3), dtype=bool)
    mask[0, :3, :2] = True
    mask[1] = True
    fine = K.Sites(mask.shape, mask)
    coarse = fine.pooled()
    x = on_sites(rng.normal(size=(2, 3, 2, 2)), coarse, requires_grad=True)
    k = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
    skip = on_sites(rng.normal(size=(2, 5, 3, 2)), fine, requires_grad=True)
    probe = rng.normal(size=(fine.n, 5))

    def f():
        return probe_loss(K.deconv2(x, k, skip), probe)

    assert grad_check(f, [x, k, skip], h=H_STEP) < TOL
    image = Tensor(as_image(x.data, coarse))  # the pooled rows on their 3 x 2 grid, zero elsewhere
    full = K.deconv2(image, k, no_skip(image)).data
    out = K.deconv2(x, k, skip)
    assert out.sites is fine
    assert np.array_equal(out.data[:, :3], full[:, :5, :3][mask])
    assert np.array_equal(out.data[:, 3:], skip.data)
    # Every input row has a real output cell, and the skip gets its
    # channels of the gradient.
    for t in (x, skip):
        t.zero_grad()
    f().backward()
    assert np.all(np.abs(x.grad).sum(axis=1) > 0)
    assert np.array_equal(skip.grad, probe[:, 3:])


def test_pool_then_deconv_on_rows_keeps_the_real_cells():
    # A U-Net level on a padded batch: pool the rows, up-sample, join the
    # pre-pool rows; the rows stay one per real cell of the level above.
    rng = rng_for(9)
    mask = conv_mask("ragged", rng)
    sites = K.Sites(mask.shape, mask)
    x = on_sites(rng.normal(size=mask.shape + (2,)), sites)
    out = K.deconv2(K.maxpool2(x), Tensor(rng.normal(size=(2, 3, 2, 2))), x)
    assert out.sites is sites and out.data.shape == (sites.n, 5)


def test_deconv_crop_beyond_output_fails():
    # A 2 x 2 input gives a 4 x 4 output, which no crop can stretch to 5 x 4.
    x = Tensor(np.zeros((1, 2, 2, 1)))
    with pytest.raises(ValueError):
        K.deconv2(x, Tensor(np.ones((1, 1, 2, 2))), Tensor(np.zeros((1, 5, 4, 0))))


def test_deconv_matches_einsum_oracle():
    # out[b, 2i + a, 2j + c, d] = sum over channels of x[b, i, j, :] k[:, d, a, c].
    rng = rng_for(720)
    k = rng.normal(size=(5, 3, 2, 2))
    x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    kt = Tensor(k, requires_grad=True)
    probe = rng.normal(size=(2, 6, 8, 3))
    out = K.deconv2(x, kt, no_skip(x))
    probe_loss(out, probe).backward()
    g6 = probe.reshape(2, 3, 2, 4, 2, 3)
    want = np.einsum("bijc,cdkl->bikjld", x.data, k).reshape(2, 6, 8, 3)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(x.grad, np.einsum("bikjld,cdkl->bijc", g6, k), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(kt.grad, np.einsum("bijc,bikjld->cdkl", x.data, g6), rtol=1e-12, atol=1e-12)


def test_pool_deconv_shape_round_trip():
    # The U-Net's level: pool, then up-sample and join the pre-pool features.
    rng = rng_for(7)
    x = Tensor(channels_last(rng.normal(size=(1, 2, 8, 6))))
    k = Tensor(rng.normal(size=(2, 3, 2, 2)))
    assert K.deconv2(K.maxpool2(x), k, x).data.shape == (1, 8, 6, 5)


@pytest.mark.parametrize("hw", [(7, 5), (6, 3), (1, 1)])
def test_pool_then_cropped_deconv_restores_odd_sides(hw):
    rng = rng_for(8)
    x = Tensor(rng.normal(size=(1, *hw, 2)))
    k = Tensor(rng.normal(size=(2, 3, 2, 2)))
    assert K.deconv2(K.maxpool2(x), k, x).data.shape == (1, *hw, 5)


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
        K.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


@pytest.mark.parametrize("seed", range(3))
def test_linear_grads_match_finite_differences(seed):
    rng = rng_for(500 + seed)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    probe = rng.normal(size=(2, 3, 2))

    def f():
        return probe_loss(K.linear(x, w, b), probe)

    assert grad_check(f, [x, w, b], h=H_STEP) < TOL


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


@pytest.mark.parametrize(
    "targets, mask",
    [([0, 0, 0], None), ([[0, 0]], None), ([0, 0], [True, True, True])],
    ids=["targets_too_long", "targets_2d", "mask_too_long"],
)
def test_wce_shape_mismatch_fails(targets, mask):
    with pytest.raises(ValueError, match="must have shape"):
        K.weighted_cross_entropy(Tensor(np.zeros((2, 3))), targets, [1, 1, 1], mask=mask)


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

    assert grad_check(f, [logits], h=H_STEP) < TOL


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
        b = Tensor(np.zeros(3), requires_grad=True)
        h = K.linear(w, w, b)
        watch = weakref.ref(h.data)
        loss = probe_loss(K.linear(h, w, b), rng_for(6).normal(size=(3, 3)))
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
        loss = probe_loss(out, rng.normal(size=out.data.shape))
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
        return probe_loss(K.conv2d(x, k), probe)

    with pytest.raises(ValueError, match=rf"parameter 1 of shape \(1, 4, 4, 2\) is {found}"):
        grad_check(f, [k, x])
    x.data = np.ascontiguousarray(xd, dtype=np.float64)
    assert grad_check(f, [k, x], h=H_STEP) < TOL


# ---------------------------------------------------------------------------
# gradient routing: a constant input gets no gradient


def _lstm_case(rng):
    (w_ih, w_hh, _), bwd = bilstm_weights(rng, 3, 2)
    table, ids = as_table(rng.normal(size=(2, 4, 3)))
    arrays = [table.data, w_ih.data, w_hh.data, rng.normal(size=8), *(t.data for t in bwd)]
    return arrays, lambda table, *w: K.lstm(table, ids, w[:3], w[3:], [4, 2])


def _bn_relu_case(rng):
    arrays = [rng.normal(size=(20, 3)), rng.uniform(0.5, 2.0, size=3), rng.normal(size=3)]
    return arrays, lambda y, g, b: K.bn_relu(y, g, b, np.zeros(3), np.ones(3), training=True)


# Each op's input arrays and a call taking one tensor per array.
ROUTING_CASES = {
    "conv2d": lambda rng: ([rng.normal(size=(2, 4, 5, 3)), rng.normal(size=(2, 3, 3, 3))], K.conv2d),
    "deconv2": lambda rng: (
        [rng.normal(size=(2, 3, 2, 3)), rng.normal(size=(3, 2, 2, 2)), rng.normal(size=(2, 5, 4, 2))],
        K.deconv2,
    ),
    "bn_relu": _bn_relu_case,
    "linear": lambda rng: ([rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)], K.linear),
    "lstm": _lstm_case,
    "encoding_layer": lambda rng: (
        [rng.normal(size=(2, 6, 4)), rng.normal(size=(4, 4))],
        lambda states, w: encoding_layer(states, [(3, 2), (2, 1)], (3, 2), w),
    ),
}
ROUTING_PARAMS = [
    (op, const) for op, case in ROUTING_CASES.items() for const in range(len(case(rng_for(0))[0]))
]


@pytest.mark.parametrize("op, const", ROUTING_PARAMS, ids=[f"{op}-input{i}" for op, i in ROUTING_PARAMS])
def test_constant_input_gets_no_gradient_and_leaves_the_others_unchanged(op, const):
    arrays, call = ROUTING_CASES[op](rng_for(600))

    def grads(constant):
        tensors = [Tensor(a.copy(), requires_grad=i != constant) for i, a in enumerate(arrays)]
        out = call(*tensors)
        probe_loss(out, rng_for(601).normal(size=out.data.shape)).backward()
        return [t.grad for t in tensors]

    full, held = grads(None), grads(const)
    assert held[const] is None
    for i, (g_full, g_held) in enumerate(zip(full, held)):
        if i != const:
            assert np.array_equal(g_held, g_full), f"input {i}"

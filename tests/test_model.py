"""Model-layer contracts: pair features vs a naive oracle, their gradients
and padding, the segmentation channel trace, loss masking, prediction
decoding, and the kernel calls one batch-1 rewrite makes."""

import gc
import importlib.util
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from _float64 import to_float64
from _grad_check import grad_check
from _weights import probe_loss

from editseg import autodiff as ad
from editseg import generation
from editseg import kernels as K
from editseg import model as model_module
from editseg import supervision
from editseg.autodiff import Tensor
from editseg.checkpoint import load_run, save_model
from editseg.data import SyntheticSpec, generate_synthetic
from editseg.dialogue import (
    EMPTY_CONNECTION_WORDS,
    ConnectionWordList,
    DialogueExample,
    join_context,
    prepare_incomplete,
    word_tokens,
)
from editseg.model import (
    EncodedExample,
    ModelConfig,
    Rewriter,
    RewriteModel,
    Vocabulary,
    decode_matrix,
    encode_example,
    encoding_layer,
)
from editseg.supervision import EditType, build_gold_matrix


def toy_config(vocab_size=20, **kw):
    defaults = dict(embed_dim=6, hidden_dim=3, base_channels=2)
    defaults.update(kw)
    return ModelConfig(vocab_size=vocab_size, **defaults)


def toy_examples():
    e1 = DialogueExample.create(
        [word_tokens("a b c".split()), word_tokens("d e".split())],
        word_tokens("f g h".split()),
        word_tokens("f g h".split()),
    )
    e2 = DialogueExample.create(
        [word_tokens("a d".split())],
        word_tokens("b c e f".split()),
        word_tokens("b c e f".split()),
    )
    return [e1, e2]


# ---------------------------------------------------------------------------
# config / vocab


def test_config_validates_and_reports_channels():
    cfg = ModelConfig(vocab_size=10)
    assert (cfg.embed_dim, cfg.hidden_dim, cfg.base_channels) == (100, 200, 32)
    assert cfg.class_weights == (1.0, 5.0, 5.0)
    assert cfg.feature_channels == 402
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    bad_weights = ((0.0, 1.0, 1.0), (1.0, float("nan"), 5.0), (1.0, 5.0, float("inf")), (1.0, 5.0), (True, 5.0, 5.0))
    for weights in bad_weights:
        with pytest.raises(ValueError, match="class_weights"):
            ModelConfig(vocab_size=5, class_weights=weights)
    for name, value in (("embed_dim", 4.0), ("hidden_dim", True)):
        with pytest.raises(ValueError, match=name):
            ModelConfig(vocab_size=5, **{name: value})


def test_config_from_dict_accepts_old_sidecar_with_batch_size():
    # Older sidecars serialized a batch_size the model never read.
    cfg = ModelConfig(vocab_size=10, hidden_dim=7)
    old = dict(cfg.to_dict(), batch_size=16)
    assert ModelConfig.from_dict(old) == cfg
    assert "batch_size" not in cfg.to_dict()


def test_vocab_roundtrip_and_unk():
    vocab = Vocabulary(["b", "a"])
    ids = vocab.encode(word_tokens(["a", "b", "zzz"]))
    assert ids[2] == Vocabulary.UNK
    assert ids[0] != ids[1]
    assert vocab.size == 5  # UNK, [S], [E], a, b


def test_encode_with_gold_joins_context_once(monkeypatch):
    examples = toy_examples()
    conn = ConnectionWordList(("and", "of"))
    vocab = Vocabulary.from_examples(examples, conn)
    joins, prepares = [], []

    def counting_join(*args, **kwargs):
        joins.append(args[0])
        return join_context(*args, **kwargs)

    def counting_prepare(x):
        prepares.append(tuple(x))
        return prepare_incomplete(x)

    for module in (model_module, supervision):
        monkeypatch.setattr(module, "join_context", counting_join)
        # raising=False: supervision needs no prepared utterance and does not import the name.
        monkeypatch.setattr(module, "prepare_incomplete", counting_prepare, raising=False)
    encoded = [encode_example(ex, vocab, conn, 2, with_gold=True) for ex in examples]
    assert joins == examples
    assert prepares == [ex.incomplete for ex in examples]
    monkeypatch.undo()
    for ex, enc in zip(examples, encoded):
        gold, coverage = build_gold_matrix(ex, conn, 2)
        assert np.array_equal(enc.gold, gold) and enc.coverage is coverage
        assert enc.m == len(join_context(ex, conn, 2))


# ---------------------------------------------------------------------------
# encoding layer


def pair_features(u, hx, w):
    """``encoding_layer`` on unpadded rows: each example's u (M rows) then hx
    (N rows) as one BiLSTM output, on an M x N grid, as that (B, M, N, D) image."""
    states = Tensor(np.concatenate([u, hx], axis=1))
    return K.to_grid(encoding_layer(states, [(u.shape[1], hx.shape[1])] * len(u), (u.shape[1], hx.shape[1]), w))


def test_encoding_unit_vector_case():
    h = 3
    w = Tensor(np.arange(4 * h * h, dtype=float).reshape(2 * h, 2 * h) / 10)
    e1 = np.zeros((1, 1, 2 * h))
    e1[0, 0, 0] = 1.0
    feats = pair_features(e1, e1, w)
    assert feats.data.shape == (1, 1, 1, 2 * h + 2)
    elem = feats.data[0, 0, 0, : 2 * h]
    assert np.array_equal(elem, e1[0, 0])
    assert feats.data[0, 0, 0, 2 * h] == pytest.approx(1.0)  # cosine
    assert feats.data[0, 0, 0, 2 * h + 1] == pytest.approx(w.data[0, 0])  # bilinear


def test_encoding_orthogonal_vectors_zero_cosine():
    u = np.array([[[1.0, 0.0]]])
    hx = np.array([[[0.0, 1.0]]])
    feats = pair_features(u, hx, Tensor(np.eye(2)))
    assert feats.data[0, 0, 0, 2] == pytest.approx(0.0)


def test_encoding_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(2, 3, 6))
    hx = rng.normal(size=(2, 2, 6))
    w = rng.normal(size=(6, 6))
    feats = pair_features(u, hx, Tensor(w)).data
    assert feats.shape == (2, 3, 2, 8)
    for b in range(2):
        for m in range(3):
            for n in range(2):
                elem = hx[b, n] * u[b, m]
                cos = hx[b, n] @ u[b, m] / (np.linalg.norm(hx[b, n]) * np.linalg.norm(u[b, m]))
                bil = hx[b, n] @ w @ u[b, m]
                want = np.concatenate([elem, [cos], [bil]])
                assert np.max(np.abs(feats[b, m, n] - want)) < 1e-12


def test_encoding_grads_match_finite_differences():
    # A BiLSTM output as the batch gives it: example 0 has (m, nx) = (3, 3),
    # example 1 (4, 2), real rows of mixed norm, and rows past m + nx that
    # the gather must neither read nor send gradient to. On the 4 x 3 grid
    # the node computes the 9 + 8 real cells' rows alone.
    rng = np.random.default_rng(3)
    sizes = [(3, 3), (4, 2)]
    states = rng.normal(size=(2, 8, 6)) * rng.uniform(0.2, 2.0, size=(2, 8, 1))
    w = rng.normal(size=(6, 6))
    tensors = [Tensor(a, requires_grad=True) for a in (states, w)]
    weights = rng.normal(size=(17, 8))

    def f():
        return probe_loss(encoding_layer(tensors[0], sizes, (4, 3), tensors[1]), weights)

    assert grad_check(f, tensors) < 1e-5
    tensors[0].zero_grad()
    f().backward()
    grad = tensors[0].grad
    for i, (m, nx) in enumerate(sizes):
        assert np.all(grad[i, m + nx :] == 0.0)
        assert np.all(np.any(grad[i, : m + nx] != 0.0, axis=1))


def test_encoding_backward_over_zero_rows_is_finite():
    rng = np.random.default_rng(4)
    states = np.zeros((2, 7, 6))
    states[0, :2] = rng.normal(size=(2, 6))  # example 0: (m, nx) = (4, 3)
    states[0, 4] = rng.normal(size=6)
    tensors = [Tensor(a, requires_grad=True) for a in (states, rng.normal(size=(6, 6)))]
    with np.errstate(all="raise"):
        out = encoding_layer(tensors[0], [(4, 3), (2, 1)], (4, 3), tensors[1])
        assert np.all(out.data[12:] == 0.0)  # example 1's two rows
        probe_loss(out, rng.normal(size=out.data.shape)).backward()
    for t in tensors:
        assert np.all(np.isfinite(t.grad))


# ---------------------------------------------------------------------------
# feature_batch


def test_feature_batch_holds_one_row_per_real_cell_of_mixed_sizes():
    # Exactly sum(m * nx) rows on the batch's 8 x 5 grid, each example's
    # block row-major in turn, each row its features computed alone.
    examples = toy_examples() + [
        DialogueExample.create([], word_tokens(["b"]), word_tokens(["b"])),
        DialogueExample.create(
            [word_tokens("a b c d e f g h".split())], word_tokens("c d".split())
        ),
    ]
    vocab = Vocabulary.from_examples(examples)
    model = to_float64(RewriteModel(toy_config(vocab.size), seed=2))
    batch = [encode_example(e, vocab) for e in examples]
    with np.errstate(all="raise"):
        features, masks = model.feature_batch(batch)
        alone = []  # each example alone, its rows from its own BiLSTM pass
        for enc in batch:
            states = model.context_layer([enc])
            sizes = [(enc.m, enc.nx)]
            alone.append(encoding_layer(states, sizes, sizes[0], model.tensors["bilinear.w"]).data)
    d = model.config.feature_channels
    assert features.data.dtype == np.float64
    assert features.data.shape == (sum(enc.m * enc.nx for enc in batch), d)
    assert features.sites.shape == masks.shape == (4, 8, 5)  # M up to 8, N + 1 up to 5
    assert np.array_equal(features.sites.mask, masks)
    row = 0
    for i, enc in enumerate(batch):
        assert masks[i].sum() == enc.m * enc.nx
        assert masks[i, : enc.m, : enc.nx].all()
        rows = features.data[row : row + enc.m * enc.nx]
        assert np.max(np.abs(rows - alone[i]), initial=0.0) < 1e-12
        row += enc.m * enc.nx


def benchmark_workloads():
    """The benchmark's workload definitions (``perfbench/workloads.py``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("corpus", ["default", "long"])
def test_no_real_cell_has_an_all_zero_feature_vector(corpus):
    # Each real cell of the mask has one feature row, and no row is all
    # zero. Checked at the benchmark's paper and toy dims, with seeded
    # models, on the corpora it serves at seed 1.
    w = benchmark_workloads()
    spec = {"default": {}, "long": w.LONG_SPEC}[corpus]
    examples = generate_synthetic(SyntheticSpec(num_examples=256, seed=1, **spec))
    vocab = Vocabulary.from_examples(examples)
    batch = sorted((encode_example(ex, vocab) for ex in examples), key=lambda e: (e.m, e.nx))
    for dims in (w.PAPER_DIMS, w.TOY_DIMS):
        model = RewriteModel(ModelConfig(vocab_size=vocab.size, **dims), seed=1)
        with ad.no_grad():
            for i in range(0, len(batch), 16):
                features, masks = model.feature_batch(batch[i : i + 16])
                assert features.data.shape[0] == masks.sum() and features.data.any(axis=1).all()


def test_padded_training_step_keeps_the_features_and_their_gradient_as_rows(monkeypatch):
    # No dense (B, M, N, D) feature image or gradient: every node value and
    # gradient with the D feature channels is the (sum m * nx, D) rows.
    examples = toy_examples()  # grids 6 x 4 and 2 x 5, so the batch is padded
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size, hidden_dim=5), seed=5)
    batch = [encode_example(e, vocab, with_gold=True) for e in examples]
    d = model.config.feature_channels
    assert d not in (6, 10, 2, 4, 8, 3)  # embedding, states and U-Net widths
    shapes = []
    node, accumulate = ad._node, ad._accumulate

    def recording_node(data, parents, backward):
        shapes.append(np.shape(data))
        return node(data, parents, backward)

    def recording_accumulate(t, g):
        shapes.append(np.shape(g))
        accumulate(t, g)

    monkeypatch.setattr(ad, "_node", recording_node)
    monkeypatch.setattr(ad, "_accumulate", recording_accumulate)
    model.forward_loss(batch).backward()
    wide = [s for s in shapes if s and s[-1] == d]
    assert wide == [(sum(e.m * e.nx for e in batch), d)] * 2  # the features, then their gradient


# ---------------------------------------------------------------------------
# context layer


def test_context_layer_shapes_and_slices():
    cfg = toy_config()
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=1)
    batch = [encode_example(e, vocab) for e in examples]
    enc = model.context_layer(batch)
    assert enc.data.shape == (2, max(b.m + b.nx for b in batch), 2 * model.config.hidden_dim)
    # M = 3 + 1 + 2 = 6 for the first example; Nx = 3 + 1.
    assert (batch[0].m, batch[0].nx) == (6, 4)


def test_edge_grids_predict_without_float_errors():
    # Grids with no rows (an empty context) or one column (an empty
    # utterance, by hand: examples refuse one) run the whole U-Net on their
    # own size, pooled and cropped back.
    e = DialogueExample.create([], word_tokens(["a", "b"]), word_tokens(["a", "b"]))
    vocab = Vocabulary.from_examples([e] + toy_examples())
    model = RewriteModel(toy_config(vocab.size), seed=0)
    one_column = [EncodedExample(ids=np.arange(m + 1) % vocab.size, m=m, nx=1) for m in (1, 2, 5)]
    with np.errstate(all="raise"):
        assert model.predict_encoded(encode_example(e, vocab)).shape == (0, 3)
        for enc in one_column:
            assert model.predict_encoded(enc).shape == (enc.m, 1)


def test_empty_context_gives_empty_u():
    e = DialogueExample.create([], word_tokens(["a", "b"]), word_tokens(["a", "b"]))
    vocab = Vocabulary.from_examples([e])
    model = RewriteModel(toy_config(vocab.size), seed=0)
    enc = encode_example(e, vocab)
    assert enc.m == 0
    matrix = model.predict_encoded(enc)
    assert matrix.shape == (0, 3)


def test_joint_encoding_gradient_reaches_context_embeddings():
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=2)
    batch = [encode_example(examples[0], vocab)]
    enc = model.context_layer(batch)
    probe = np.zeros(enc.data.shape)  # the loss reads the utterance rows Hx only
    hx_rows = slice(batch[0].m, batch[0].m + batch[0].nx)
    probe[0, hx_rows] = np.random.default_rng(0).normal(size=probe[0, hx_rows].shape)
    probe_loss(enc, probe).backward()
    grad_rows = model.tensors["embedding"].grad[batch[0].ids[: batch[0].m]]
    assert np.abs(grad_rows).sum() > 0, "loss on Hx must reach context embedding rows"


def test_context_layer_is_one_node_reading_the_embedding_and_lstm_weights():
    # The scan gathers its steps from the table: no lookup node in between.
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=2)
    states = model.context_layer([encode_example(ex, vocab) for ex in examples[:3]])
    names = ["embedding", *(f"lstm.{d}.{w}" for d in ("fwd", "bwd") for w in ("w_ih", "w_hh", "b"))]
    assert [id(p) for p in states._parents] == [id(model.tensors[name]) for name in names]


# ---------------------------------------------------------------------------
# segmentation layer


def test_segmentation_channel_trace():
    """C0=32 trace: 32 -> 64 -> 128 -> 64(+64 skip) -> 32(+32 skip) -> 3."""
    cfg = toy_config(base_channels=32, hidden_dim=3)
    model = RewriteModel(cfg, seed=0)
    shapes = {name: k.data.shape for name, k in model.convs.items()}
    d = cfg.feature_channels
    assert shapes["down1.conv1"] == (32, d, 3, 3)
    assert shapes["down1.conv2"] == (32, 32, 3, 3)
    assert shapes["down2.conv1"] == (64, 32, 3, 3)
    assert shapes["down2.conv2"] == (64, 64, 3, 3)
    assert shapes["up1.conv1"] == (128, 64, 3, 3)
    assert shapes["up1.conv2"] == (128, 128, 3, 3)
    assert model.tensors["up1.deconv.k"].data.shape == (128, 64, 2, 2)
    assert shapes["up2.conv1"] == (64, 128, 3, 3)  # 64 deconv + 64 skip in
    assert shapes["up2.conv2"] == (64, 64, 3, 3)
    assert model.tensors["up2.deconv.k"].data.shape == (64, 32, 2, 2)
    assert model.tensors["head.w"].data.shape == (64, 3)  # C0 + C0 skip -> 3


def test_every_kernel_of_a_model_is_stored_as_its_gemm_operand():
    # conv2d and deconv2 copy a kernel held in any other layout on every call
    # and give the same result, so only this check sees the stored layout
    # drift from the operand the kernels read.
    seeded = RewriteModel(toy_config(), seed=0)
    loaded = RewriteModel.from_arrays(seeded.config, seeded.state())
    for name, t in loaded.tensors.items():
        assert not np.shares_memory(t.data, seeded.tensors[name].data), name
    for model in (seeded, loaded):
        kernels = {name: t.data for name, t in model.tensors.items() if name.endswith(".k")}
        assert len(kernels) == 10
        for name, k in kernels.items():
            if k.shape[2:] == (2, 2):
                operand = k.reshape(k.shape[0], -1)
            elif K._uses_im2col(k):
                operand = K._im2col_rows(k)
            else:
                operand = K._reversed_taps(k)
            assert np.shares_memory(operand, k), name


def test_both_recurrent_weights_are_halves_of_the_buffer_the_lstm_reads():
    # kernels.lstm stacks weights held apart on every call and gives the
    # same result, so only this check sees the stacked buffer come apart.
    seeded = RewriteModel(toy_config(), seed=0)
    loaded = RewriteModel.from_arrays(seeded.config, seeded.state())
    for model in (seeded, loaded):
        fwd, bwd = (model.tensors[f"lstm.{d}.w_hh"].data for d in ("fwd", "bwd"))
        stacked = K.stacked_pair(fwd, bwd)
        assert stacked is fwd.base and stacked.flags.c_contiguous
        assert stacked.shape == (2, *fwd.shape) and stacked.dtype == np.float32
        for pair in ((bwd, fwd), (fwd, fwd)):  # not the buffer's order: a stacked copy
            assert np.array_equal(K.stacked_pair(*pair), np.stack(pair))


def test_segmentation_preserves_spatial_dims():
    cfg = toy_config()
    model = RewriteModel(cfg, seed=0)
    x = Tensor(np.random.default_rng(1).normal(size=(2, cfg.feature_channels, 8, 4)).transpose(0, 2, 3, 1))
    logits = model.segmentation_layer(x, training=False)
    assert logits.data.shape == (2, 8, 4, 3)


def test_eval_mode_is_batch_order_invariant():
    cfg = toy_config()
    model = RewriteModel(cfg, seed=3)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, cfg.feature_channels, 4, 4)).transpose(0, 2, 3, 1)
    with ad.no_grad():
        out = model.segmentation_layer(Tensor(x), training=False).data
        flipped = model.segmentation_layer(Tensor(x[::-1].copy()), training=False).data
        repeat = model.segmentation_layer(Tensor(x), training=False).data
    # Identical calls are bitwise identical; reordering the batch only moves
    # BLAS summation blocks around (error at machine-epsilon scale).
    assert np.array_equal(out, repeat)
    assert np.allclose(out, flipped[::-1], atol=1e-12, rtol=0.0)


# ---------------------------------------------------------------------------
# loss


def test_loss_all_none_with_confident_logits_near_zero():
    # Mask contract via direct kernel use is covered in kernel tests; here
    # check the orchestration: all-None gold plus padding gives finite loss.
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=4)
    batch = [encode_example(e, vocab, with_gold=True) for e in examples]
    loss = model.forward_loss(batch)
    assert np.isfinite(loss.item())


def test_loss_uniform_logits_all_none_is_ln3():
    # With zeroed head the logits are all equal, so loss = w[None] * ln 3;
    # rel=1e-9 needs float64.
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = to_float64(RewriteModel(toy_config(vocab.size), seed=4))
    model.tensors["head.w"].data[:] = 0.0
    model.tensors["head.b"].data[:] = 0.0
    batch = [encode_example(e, vocab, with_gold=True) for e in examples]
    loss = model.forward_loss(batch)
    assert loss.item() == pytest.approx(math.log(3.0), rel=1e-9)


def test_forward_loss_is_deterministic_per_seed():
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=6)
    single = [encode_example(examples[0], vocab, with_gold=True)]
    loss_a = model.forward_loss(single).item()
    # The padding-invariance test comes with ROADMAP item 1 (the padding mask).
    model2 = RewriteModel(toy_config(vocab.size), seed=6)
    loss_b = model2.forward_loss(single).item()
    assert loss_a == loss_b


def trained_toy_model(examples, vocab, steps=10):
    """A toy model after ``steps`` Adam steps at lr 1e-2 on ``examples``, so
    that its batch-norm running statistics are far from (0, 1)."""
    model = RewriteModel(ModelConfig(vocab_size=vocab.size, embed_dim=12, hidden_dim=8, base_channels=4), seed=1)
    batch = [encode_example(ex, vocab, with_gold=True) for ex in examples]
    params = list(model.parameters().values())
    adam = K.AdamState.for_params(params)
    for _ in range(steps):
        model.zero_grad()
        model.forward_loss(batch).backward()
        K.adam_step(params, [p.grad for p in params], adam, lr=1e-2)
    return model


def test_adam_steps_reach_the_stacked_recurrent_weights():
    # Adam updates every parameter in place; a w_hh whose tensor had come
    # apart from the buffer the LSTM reads would leave a stale half there.
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = trained_toy_model(examples, vocab)
    fwd, bwd = (model.tensors[f"lstm.{d}.w_hh"].data for d in ("fwd", "bwd"))
    assert K.stacked_pair(fwd, bwd) is fwd.base
    loaded = RewriteModel.from_arrays(model.config, model.state())
    batch = [encode_example(ex, vocab) for ex in examples]
    with ad.no_grad():
        logits = [m.segmentation_layer(m.feature_batch(batch)[0], training=False).data for m in (model, loaded)]
    assert np.array_equal(*logits)


def padded_logits(model, batch, grid, training):
    """Logits of ``batch`` on ``grid``, which may exceed its largest (m, nx)."""
    states = model.context_layer(batch)
    features = encoding_layer(states, [(e.m, e.nx) for e in batch], grid, model.tensors["bilinear.w"])
    return model.segmentation_layer(features, training)


def test_eval_logits_do_not_depend_on_batch_or_padding():
    examples = generate_synthetic(SyntheticSpec(num_examples=40, seed=11))
    vocab = Vocabulary.from_examples(examples)
    model = trained_toy_model(examples[:16], vocab)
    small = min(examples, key=lambda e: len(join_context(e)) * len(e.incomplete))
    large = max(examples, key=lambda e: len(join_context(e)) * len(e.incomplete))
    batch = [encode_example(ex, vocab) for ex in (small, large, examples[20], examples[21])]
    with ad.no_grad():
        together = model.segmentation_layer(model.feature_batch(batch)[0], training=False).data
        for i, enc in enumerate(batch):
            alone = model.segmentation_layer(model.feature_batch([enc])[0], training=False).data[0]
            bigger = padded_logits(model, [enc], (enc.m + 5, enc.nx + 3), training=False).data[0]
            real = np.s_[: enc.m, : enc.nx]
            assert alone.shape[:2] == (enc.m, enc.nx)
            np.testing.assert_allclose(together[i][real], alone, rtol=1e-4, atol=1e-5)
            np.testing.assert_allclose(bigger[real], alone, rtol=1e-4, atol=1e-5)
    assert batch[0].m * batch[0].nx < batch[1].m * batch[1].nx


def test_training_loss_and_gradients_do_not_depend_on_the_grid():
    # The same batch on its own grid and on a larger one, in float64: the
    # loss, every parameter gradient and the batch-norm statistics agree.
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    batch = [encode_example(e, vocab, with_gold=True) for e in examples]
    results = []
    for grid in (None, (9, 7)):
        model = to_float64(RewriteModel(toy_config(vocab.size, base_channels=3), seed=6))
        if grid is None:
            loss = model.forward_loss(batch)
        else:
            logits = padded_logits(model, batch, grid, training=True)
            targets = np.zeros(grid, dtype=np.int64)[None].repeat(len(batch), axis=0)
            masks = np.zeros(targets.shape, dtype=bool)
            for i, e in enumerate(batch):
                targets[i, : e.m, : e.nx] = e.gold
                masks[i, : e.m, : e.nx] = True
            loss = K.weighted_cross_entropy(logits, targets, model.config.class_weights, mask=masks)
        loss.backward()
        grads = {name: p.grad for name, p in model.parameters().items()}
        results.append((loss.item(), grads, model.state()))
    (loss_a, grads_a, state_a), (loss_b, grads_b, state_b) = results
    assert loss_b == pytest.approx(loss_a, rel=1e-12)
    for name in grads_a:
        np.testing.assert_allclose(grads_b[name], grads_a[name], rtol=1e-9, atol=1e-12, err_msg=name)
    for name in state_a:
        np.testing.assert_allclose(state_b[name], state_a[name], rtol=1e-12, atol=1e-14, err_msg=name)


def test_graph_dropped_without_backward_is_freed_without_the_collector(monkeypatch):
    # A diverged batch drops its loss unused. No node may hold itself through
    # its closure, or the graph, feature image included, would wait for the
    # cycle collector.
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=4)
    batch = [encode_example(e, vocab, with_gold=True) for e in examples]
    watch = []
    layer = model_module.encoding_layer

    def watched_layer(*args):
        out = layer(*args)
        watch.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(model_module, "encoding_layer", watched_layer)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        loss = model.forward_loss(batch)
        assert loss.requires_grad and len(watch) == 1 and watch[0]() is not None
        del loss
        assert watch[0]() is None
    finally:
        if gc_was_enabled:
            gc.enable()


def test_full_model_gradient_spot_check():
    """Finite-difference check on >= 20 random parameter coordinates, through
    a batch padded in both directions: (m, nx) = (4, 4) and (3, 2) share one
    4 x 4 grid, and the second example's BiLSTM rows stop at 5 of 8."""
    rng = np.random.default_rng(9)
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, hidden_dim=3, base_channels=2)
    model = to_float64(RewriteModel(cfg, seed=7))  # finite differences need float64
    targets = np.zeros((2, 4, 4), dtype=np.int64)
    targets[0, 1:3, 1] = EditType.SUBSTITUTE
    targets[0, 0, 2] = EditType.INSERT
    targets[1, 1, 0] = EditType.SUBSTITUTE
    targets[1, 2, 1] = EditType.INSERT
    batch = [EncodedExample(ids=rng.integers(3, vocab.size, size=m + nx), m=m, nx=nx) for m, nx in [(4, 4), (3, 2)]]

    params = model.parameters()

    def f():
        # BN in eval mode keeps the loss a fixed function of the parameters
        # (training mode would mutate running statistics between probes).
        features, masks = model.feature_batch(batch)
        logits = model.segmentation_layer(features, training=False)
        return K.weighted_cross_entropy(logits, targets, cfg.class_weights, mask=masks)

    for p in params.values():
        p.zero_grad()
    f().backward()
    analytic = {id(p): (p.grad.copy() if p.grad is not None else None) for p in params.values()}

    def central_diff(p, flat_idx, h):
        flat = p.data.reshape(-1)
        orig = flat[flat_idx]
        flat[flat_idx] = orig + h
        fp = f().item()
        flat[flat_idx] = orig - h
        fm = f().item()
        flat[flat_idx] = orig
        return (fp - fm) / (2 * h)

    names = sorted(params)
    checked = 0
    attempts = 0
    h = 1e-4
    while checked < 20 and attempts < 60:
        attempts += 1
        p = params[names[int(rng.integers(len(names)))]]
        flat_idx = int(rng.integers(p.data.size))
        num = central_diff(p, flat_idx, h)
        num_fine = central_diff(p, flat_idx, h / 10)
        if abs(num - num_fine) / max(abs(num), abs(num_fine), 1e-6) > 5e-4:
            # The ±h probe straddles a ReLU/maxpool kink: the point violates
            # grad_check's smoothness precondition, so draw another.
            continue
        ana_arr = analytic[id(p)]
        ana = 0.0 if ana_arr is None else ana_arr.reshape(-1)[flat_idx]
        denom = max(abs(num), abs(ana), 1e-6)
        assert abs(num - ana) / denom < 1e-3
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# predict


def test_zero_logits_decode_to_all_none():
    logits = np.zeros((5, 4, 3))
    matrix = decode_matrix(logits, 5, 4)
    assert not matrix.any()


def test_decode_is_argmax_invariant_under_affine_transforms():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(6, 5, 3))
    base = decode_matrix(logits, 6, 5)
    for a, b in ((2.0, 1.0), (0.5, -3.0), (10.0, 0.0)):
        assert np.array_equal(decode_matrix(a * logits + b, 6, 5), base)


def test_predict_counts_one_invocation_and_is_deterministic():
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=8)
    enc = encode_example(examples[0], vocab)
    before = model.invocations
    m1 = model.predict_encoded(enc)
    m2 = model.predict_encoded(enc)
    assert model.invocations == before + 2
    assert np.array_equal(m1, m2)
    assert m1.shape == (enc.m, enc.nx)


def test_batch1_rewrite_calls_traced_kernels_through_module_attributes(monkeypatch):
    # The benchmark's per-layer spans wrap these module attributes; a call
    # that bypasses them (a ``from .kernels import conv2d``) would silently
    # drop out of the trace. One ``lstm`` call runs both directions.
    calls = {"lstm": 0, "conv2d": 0, "two_pass_label": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(K, "lstm")
    counting(K, "conv2d")
    counting(generation, "two_pass_label")
    examples = toy_examples()
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=3)
    ex = examples[0]
    matrix = model.predict_encoded(encode_example(ex, vocab))
    generation.rewrite_from_matrix(matrix, prepare_incomplete(list(ex.incomplete)), join_context(ex))
    assert calls == {"lstm": 1, "conv2d": 8, "two_pass_label": 1}


def shapes(value):
    """A kernel argument as the test compares it: arrays by shape, tuples
    and lists item by item, anything else by its type."""
    if isinstance(value, (Tensor, np.ndarray)):
        return np.shape(value.data if isinstance(value, Tensor) else value)
    if isinstance(value, (tuple, list)):
        return tuple(shapes(v) for v in value)
    return type(value).__name__


def test_one_pass_makes_the_same_kernel_calls_whatever_the_output_length(monkeypatch):
    # The paper's one-pass property, counted instead of timed: two examples
    # on the same (m, nx) grid whose rewrites differ in length make the same
    # kernel calls, with the same argument shapes, in one model invocation
    # each. The head predicts Substitute everywhere, so each rewrite is its
    # context without separators, and the two contexts hold different
    # numbers of them. A kernel call per output token would show here.
    examples = generate_synthetic(SyntheticSpec(num_examples=40, seed=3))
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size, embed_dim=4, base_channels=2), seed=2)
    model.tensors["head.w"].data[:] = 0.0
    model.tensors["head.b"].data[:] = [0.0, 5.0, 0.0]
    calls = []

    def recording(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, shapes(args), {k: shapes(v) for k, v in kwargs.items()}))
            return original(*args, **kwargs)

        return wrapper

    for name, value in vars(K).items():
        if callable(value) and not isinstance(value, type) and getattr(value, "__module__", None) == K.__name__:
            monkeypatch.setattr(K, name, recording(name, value))

    def one_pass(enc):
        calls.clear()
        before = model.invocations
        matrix = model.predict_encoded(enc)
        tokens, _ = generation.rewrite_from_matrix(matrix, enc.x, enc.c)
        assert model.invocations == before + 1
        return list(calls), len(tokens)

    by_grid = {}
    for enc in (encode_example(ex, vocab) for ex in examples):
        by_grid.setdefault((enc.m, enc.nx), []).append(enc)
    runs = next(
        runs
        for runs in ([one_pass(enc) for enc in group] for group in by_grid.values() if len(group) > 1)
        if len({length for _, length in runs}) > 1
    )
    first, _ = runs[0]
    assert {name for name, _, _ in first} >= {"lstm", "conv2d", "maxpool2", "deconv2", "linear"}
    assert all(made == first for made, _ in runs[1:])


# ---------------------------------------------------------------------------
# dtype


def test_float32_end_to_end(tmp_path, monkeypatch):
    """A training step, the Adam state, serving and a reloaded model stay float32.

    A single float64 array in the graph (a bool or float64 padding mask, say)
    would silently promote every node after it, so each node value and each
    accumulated gradient is checked where the graph makes it.
    """
    examples = toy_examples()  # grids 6 x 4 and 2 x 5: both padded to 8 x 8
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=5)
    batch = [encode_example(e, vocab, with_gold=True) for e in examples]
    seen = []
    node, accumulate = ad._node, ad._accumulate

    def recording_node(data, parents, backward):
        out = node(data, parents, backward)
        seen.append(("value", out.data.dtype))
        return out

    def recording_accumulate(t, g):
        accumulate(t, g)
        seen.append(("grad", t.grad.dtype))

    monkeypatch.setattr(ad, "_node", recording_node)
    monkeypatch.setattr(ad, "_accumulate", recording_accumulate)
    model.forward_loss(batch).backward()
    assert {kind for kind, _ in seen} == {"value", "grad"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}

    params = list(model.parameters().values())
    assert all(np.isfinite(p.grad).all() for p in params)
    adam = K.AdamState.for_params(params)
    K.adam_step(params, [p.grad for p in params], adam, lr=1e-3)
    stored = adam.m + adam.v + list(model.state().values())
    assert {a.dtype for a in stored} == {np.dtype(np.float32)}

    logits = []
    segmentation_layer = model.segmentation_layer

    def recording_segmentation(features, training):
        out = segmentation_layer(features, training)
        logits.append(out.data.dtype)
        return out

    monkeypatch.setattr(model, "segmentation_layer", recording_segmentation)
    seen.clear()
    model.predict_encoded(batch[0])
    assert logits == [np.dtype(np.float32)]
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}

    path = tmp_path / "m.run"
    save_model(path, Rewriter(model, vocab, EMPTY_CONNECTION_WORDS, 0, "whitespace"), adam=adam)
    loaded, _, loaded_adam = load_run(path)
    stored = list(loaded.model.state().values()) + loaded_adam.m + loaded_adam.v
    assert {a.dtype for a in stored} == {np.dtype(np.float32)}

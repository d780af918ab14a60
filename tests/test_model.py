"""Model-layer contracts: pair features vs a naive oracle, their gradients
and padding, the segmentation channel trace, loss masking, prediction
decoding, and the kernel calls one batch-1 rewrite makes."""

import math

import numpy as np
import pytest
from _float64 import to_float64

from editseg import autodiff as ad
from editseg import generation
from editseg import kernels as K
from editseg import model as model_module
from editseg import supervision
from editseg.autodiff import Tensor
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
    RewriteModel,
    Vocabulary,
    decode_matrix,
    encode_example,
    encoding_layer,
)
from editseg.supervision import EditType, build_gold_matrix
from editseg.training import Rewriter, _load_run, save_model


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
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=5, class_weights=(0.0, 1.0, 1.0))


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
    conn = ConnectionWordList(words=("and", "of"), frequencies=(5, 3))
    vocab = Vocabulary.from_examples(examples, conn)
    joins = []

    def counting_join(*args, **kwargs):
        joins.append(args[0])
        return join_context(*args, **kwargs)

    monkeypatch.setattr(model_module, "join_context", counting_join)
    monkeypatch.setattr(supervision, "join_context", counting_join)
    encoded = [encode_example(ex, vocab, conn, 2, with_gold=True) for ex in examples]
    assert joins == examples
    monkeypatch.undo()
    for ex, enc in zip(examples, encoded):
        gold, coverage = build_gold_matrix(ex, conn, 2)
        assert np.array_equal(enc.gold, gold) and enc.coverage is coverage
        assert enc.m == len(join_context(ex, conn, 2))


# ---------------------------------------------------------------------------
# encoding layer


def test_encoding_unit_vector_case():
    h = 3
    w = Tensor(np.arange(4 * h * h, dtype=float).reshape(2 * h, 2 * h) / 10)
    e1 = np.zeros((1, 1, 2 * h))
    e1[0, 0, 0] = 1.0
    feats = encoding_layer(Tensor(e1), Tensor(e1), w)
    assert feats.data.shape == (1, 1, 1, 2 * h + 2)
    elem = feats.data[0, 0, 0, : 2 * h]
    assert np.array_equal(elem, e1[0, 0])
    assert feats.data[0, 0, 0, 2 * h] == pytest.approx(1.0)  # cosine
    assert feats.data[0, 0, 0, 2 * h + 1] == pytest.approx(w.data[0, 0])  # bilinear


def test_encoding_orthogonal_vectors_zero_cosine():
    u = np.array([[[1.0, 0.0]]])
    hx = np.array([[[0.0, 1.0]]])
    feats = encoding_layer(Tensor(u), Tensor(hx), Tensor(np.eye(2)))
    assert feats.data[0, 0, 0, 2] == pytest.approx(0.0)


def test_encoding_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(2, 3, 6))
    hx = rng.normal(size=(2, 2, 6))
    w = rng.normal(size=(6, 6))
    feats = encoding_layer(Tensor(u), Tensor(hx), Tensor(w)).data
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
    # Rows as the BiLSTM gives them: real rows of mixed norm, then the zero
    # rows that pad each example to the batch grid.
    rng = np.random.default_rng(3)
    u = rng.normal(size=(2, 4, 6)) * rng.uniform(0.2, 2.0, size=(2, 4, 1))
    hx = rng.normal(size=(2, 3, 6))
    u[0, 3:] = 0.0
    hx[1, 2:] = 0.0
    w = rng.normal(size=(6, 6))
    tensors = [Tensor(a, requires_grad=True) for a in (u, hx, w)]
    weights = rng.normal(size=(2, 4, 3, 8))
    weights[0, 3:] = 0.0  # padded cells are masked out of the loss
    weights[1, :, 2:] = 0.0

    def f():
        return ad.tsum(ad.mul(encoding_layer(*tensors), weights))

    assert K.grad_check(f, tensors) < 1e-5


def test_encoding_backward_over_zero_rows_is_finite():
    rng = np.random.default_rng(4)
    u = np.zeros((2, 4, 6))
    u[0, :2] = rng.normal(size=(2, 6))
    hx = np.zeros((2, 3, 6))
    hx[0, :1] = rng.normal(size=(1, 6))
    tensors = [Tensor(a, requires_grad=True) for a in (u, hx, rng.normal(size=(6, 6)))]
    with np.errstate(all="raise"):
        out = encoding_layer(*tensors)
        assert np.all(out.data[1] == 0.0)
        ad.tsum(ad.mul(out, rng.normal(size=out.data.shape))).backward()
    for t in tensors:
        assert np.all(np.isfinite(t.grad))


# ---------------------------------------------------------------------------
# feature_batch


def test_feature_batch_pads_mixed_sizes_with_zero_cells():
    examples = toy_examples() + [
        DialogueExample.create([], word_tokens(["b"]), word_tokens(["b"])),
        DialogueExample.create(
            [word_tokens("a b c d e f g h".split())], word_tokens("c d".split())
        ),
    ]
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(toy_config(vocab.size), seed=2)
    batch = [encode_example(e, vocab) for e in examples]
    with np.errstate(all="raise"):
        features, masks = model.feature_batch(batch)
        alone = []  # each example alone, its rows sliced from its own BiLSTM pass
        for enc in batch:
            states = model.context_layer([enc]).data
            u, hx = states[:, : enc.m], states[:, enc.m : enc.m + enc.nx]
            feats = encoding_layer(Tensor(u), Tensor(hx), model.tensors["bilinear.w"]).data[0]
            alone.append(feats)
    d = model.config.feature_channels
    assert features.data.shape == (4, 8, 8, d)  # M up to 8, N + 1 up to 5
    for i, enc in enumerate(batch):
        assert masks[i].sum() == enc.m * enc.nx
        assert masks[i, : enc.m, : enc.nx].all()
        feats = features.data[i]
        assert not feats[enc.m :].any() and not feats[:, enc.nx :].any()
        real = np.s_[: enc.m, : enc.nx]
        assert np.max(np.abs(feats[real] - alone[i]), initial=0.0) < 1e-12


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
    hx = enc[0, batch[0].m : batch[0].m + batch[0].nx, :]
    ad.tsum(ad.mul(hx, np.random.default_rng(0).normal(size=hx.data.shape))).backward()
    grad_rows = model.tensors["embedding"].grad[batch[0].ids[: batch[0].m]]
    assert np.abs(grad_rows).sum() > 0, "loss on Hx must reach context embedding rows"


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


def test_full_model_gradient_spot_check():
    """Finite-difference check on >= 20 random parameter coordinates."""
    rng = np.random.default_rng(9)
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, hidden_dim=3, base_channels=2)
    model = to_float64(RewriteModel(cfg, seed=7))  # finite differences need float64
    gold = np.zeros((4, 4), dtype=np.int8)
    gold[1:3, 1] = EditType.SUBSTITUTE
    gold[0, 2] = EditType.INSERT
    ids = rng.integers(3, vocab.size, size=8)
    ex = EncodedExample(ids=ids, m=4, nx=4, gold=gold)

    params = model.parameters()

    def f():
        # BN in eval mode keeps the loss a fixed function of the parameters
        # (training mode would mutate running statistics between probes).
        features, masks = model.feature_batch([ex])
        logits = model.segmentation_layer(features, training=False)
        targets = np.zeros((1, 4, 4), dtype=np.int64)
        targets[0] = gold
        return K.weighted_cross_entropy(
            ad.reshape(logits, (-1, 3)),
            targets.reshape(-1),
            cfg.class_weights,
            mask=masks.reshape(-1),
        )

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
    # that bypasses them (a fused bilstm, a ``from .kernels import conv2d``)
    # would silently drop out of the trace.
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
    assert calls == {"lstm": 2, "conv2d": 8, "two_pass_label": 1}


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

    def recording_node(data, parents, factory):
        out = node(data, parents, factory)
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
    loaded, _, loaded_adam = _load_run(path)
    stored = list(loaded.model.state().values()) + loaded_adam.m + loaded_adam.v
    assert {a.dtype for a in stored} == {np.dtype(np.float32)}

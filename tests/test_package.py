"""Package-level smoke: public API, the default-size configuration, and the
calls the benchmark harness makes."""

from collections import Counter

import editseg
from editseg import autodiff, generation, kernels, training
from editseg import (
    ModelConfig,
    RewriteModel,
    SyntheticSpec,
    Vocabulary,
    encode_example,
    generate_synthetic,
    rewrite_from_matrix,
    save_dataset,
    texts,
)


def test_public_api_exposes_pipeline():
    for name in editseg.__all__:
        assert hasattr(editseg, name), name


def test_default_config_predicts_single_example():
    # Paper-scale defaults (embed 100, hidden 200, 32 channels) on one
    # example: slow-ish but must work out of the box.
    ex = generate_synthetic(SyntheticSpec(num_examples=1, seed=0))[0]
    vocab = Vocabulary.from_examples([ex])
    model = RewriteModel(ModelConfig(vocab_size=vocab.size), seed=0)
    enc = encode_example(ex, vocab)
    out, _ = rewrite_from_matrix(model.predict_encoded(enc), enc.x, enc.c)
    assert all(isinstance(t.text, str) for t in out)
    assert model.invocations == 1


def test_rewrite_untrained_identity_on_empty_prediction():
    # A fresh model rarely predicts edits everywhere; whatever it predicts,
    # the output stays inside the copy restriction.
    ex = generate_synthetic(SyntheticSpec(num_examples=2, seed=5))[1]
    vocab = Vocabulary.from_examples([ex])
    model = RewriteModel(
        ModelConfig(vocab_size=vocab.size, embed_dim=8, hidden_dim=6, base_channels=2), seed=4
    )
    enc = encode_example(ex, vocab)
    out = texts(rewrite_from_matrix(model.predict_encoded(enc), enc.x, enc.c)[0])
    allowed = {t.text for u in ex.context_utterances for t in u} | {t.text for t in ex.incomplete}
    assert set(out) <= allowed


# What the benchmark harness (perfbench/run.py) wraps in timing spans, by owner.
TRACED = {
    editseg.model.RewriteModel: ("context_layer", "segmentation_layer", "zero_grad", "forward_loss"),
    editseg.model: ("encoding_layer", "decode_matrix", "build_gold_matrix"),
    kernels: ("lstm", "conv_bn_relu", "conv2d", "maxpool2", "deconv2", "linear",
              "weighted_cross_entropy", "adam_step"),
    autodiff.Tensor: ("backward",),
    generation: ("two_pass_label", "min_cover_rect", "resolve_conflicts", "apply_edits"),
    training: ("evaluate_model", "save_model"),
}


def test_benchmark_harness_calls_still_work(tmp_path, monkeypatch):
    """The calls perfbench/run.py makes, exactly as it makes them; the harness
    is frozen, so a refactor that breaks one of them fails here first."""
    for owner, names in TRACED.items():
        for name in names:
            assert callable(getattr(owner, name)), name
    examples = generate_synthetic(SyntheticSpec(num_examples=24, seed=3))
    save_dataset(examples[:20], tmp_path / "train.jsonl")
    save_dataset(examples[20:], tmp_path / "dev.jsonl")

    # train() must reach these through the module, where the harness wraps them.
    calls = Counter()
    for name in ("save_model", "evaluate_model"):
        original = getattr(training, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(training, name, counted)
    config = editseg.RunConfig(
        train_path=str(tmp_path / "train.jsonl"),
        dev_path=str(tmp_path / "dev.jsonl"),
        checkpoint_path=str(tmp_path / "train.run"),
        epochs=1, batch_size=8, lr=1e-3, seed=1, patience=1,
        embed_dim=4, hidden_dim=3, base_channels=2,
    )
    result = editseg.train(config, log=None)
    assert [h.train_loss for h in result.history] and calls == {"save_model": 2, "evaluate_model": 1}

    model, vocab, conn, k, *_ = editseg.load_model(config.checkpoint_path)
    serve = examples[20:]
    encs = [editseg.encode_example(ex, vocab, conn, k) for ex in serve]
    for ex in serve:
        x, c = editseg.prepare_incomplete(list(ex.incomplete)), editseg.join_context(ex, conn, k)
        gold = editseg.build_gold_matrix(ex, conn, k)[0]
        assert texts(editseg.rewrite_from_matrix(gold, x, c)[0]) == texts(ex.gold_rewrite)
        assert editseg.model.encode_example(ex, vocab, with_gold=True).gold is not None

    # Batch 1; the harness names conv blocks by the kernel tensor, the second
    # argument, and a kernel it does not see called leaves its span missing.
    kernel_ids = []
    conv_bn_relu = kernels.conv_bn_relu

    def recording_conv_bn_relu(x, kernel, *args):
        kernel_ids.append(id(kernel))
        return conv_bn_relu(x, kernel, *args)

    monkeypatch.setattr(kernels, "conv_bn_relu", recording_conv_bn_relu)
    # decode_matrix too: the harness's batch-1 "model.decode" span needs
    # predict_encoded to call it once, through the module.
    kernel_calls = Counter()
    for owner, name in [*((kernels, n) for n in ("lstm", "maxpool2", "deconv2", "linear")),
                        (editseg.model, "decode_matrix")]:
        original = getattr(owner, name)

        def counted_kernel(*args, _name=name, _original=original, **kwargs):
            kernel_calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted_kernel)
    before = model.invocations
    matrices = [model.predict_encoded(enc) for enc in encs]
    assert model.invocations - before == len(encs)
    assert set(kernel_ids) == {id(kernel) for kernel in model.convs.values()}
    kernel_calls.clear()
    model.predict_encoded(encs[0])
    assert kernel_calls["deconv2"] == 2 and kernel_calls["decode_matrix"] == 1, kernel_calls
    assert all(kernel_calls[name] >= 1 for name in ("lstm", "maxpool2", "linear")), kernel_calls

    # Batched.
    with editseg.no_grad():
        features, _ = model.feature_batch(encs)
        logits = model.segmentation_layer(features, training=False)
    for pos, (enc, matrix) in enumerate(zip(encs, matrices)):
        assert editseg.model.decode_matrix(logits.data[pos], enc.m, enc.nx).shape == matrix.shape


def test_padded_predict_calls_conv2d_with_its_input_and_kernel_first(monkeypatch):
    # perfbench/run.py counts conv FLOPs from every kernels.conv2d call as
    # 2·C'·C·9 per input pixel, reading args[0] as the input and args[1] as
    # the kernel; a padded batch passes the real cells' index after them.
    examples = generate_synthetic(SyntheticSpec(num_examples=6, seed=3))
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(ModelConfig(vocab_size=vocab.size, embed_dim=4, hidden_dim=3, base_channels=2), seed=2)
    encs = [encode_example(ex, vocab) for ex in examples]
    assert len({(enc.m, enc.nx) for enc in encs}) > 1  # one padded batch
    calls = []
    conv2d = kernels.conv2d

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(kernels, "conv2d", recording)
    model.predict(encs)
    assert len(calls) == 8
    for args, kwargs in calls:
        x, k = args[0].data, args[1].data
        ci = k.shape[1]
        assert x.ndim == 4 and x.shape[3] == ci and k.shape[2:] == (3, 3)
        assert not kwargs and args[2].mask is not None
    assert [id(args[1]) for args, _ in calls] == [id(k) for k in model.convs.values()]

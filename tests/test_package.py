"""Package-level smoke: public API and the default-size configuration."""

import editseg
from editseg import (
    ModelConfig,
    RewriteModel,
    SyntheticSpec,
    Vocabulary,
    encode_example,
    generate_synthetic,
    rewrite_from_matrix,
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

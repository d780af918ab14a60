"""Training loop: smoke, learning signal, determinism, and resume."""

import shutil

import numpy as np
import pytest

from editseg import training
from editseg.checkpoint import load_checkpoint, load_model, load_run, save_checkpoint, save_model
from editseg.data import SyntheticSpec, generate_synthetic, save_dataset
from editseg.dialogue import EMPTY_CONNECTION_WORDS, DialogueExample, texts, word_tokens
from editseg.training import RunConfig, bench_latency, train
from editseg.model import PREDICT_BATCH, ModelConfig, Rewriter, RewriteModel, Vocabulary, encode_example


def small_config(tmp_path, name="model.run", **kw):
    defaults = dict(
        train_path=str(tmp_path / "train.jsonl"),
        dev_path=str(tmp_path / "dev.jsonl"),
        checkpoint_path=str(tmp_path / name),
        embed_dim=12,
        hidden_dim=8,
        base_channels=4,
        lr=1e-3,
        epochs=2,
        batch_size=8,
        seed=5,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture
def corpus(tmp_path):
    examples = generate_synthetic(SyntheticSpec(num_examples=48, seed=11))
    save_dataset(examples[:40], tmp_path / "train.jsonl")
    save_dataset(examples[40:], tmp_path / "dev.jsonl")
    return tmp_path


def test_one_epoch_smoke_writes_checkpoint(corpus):
    cfg = small_config(corpus, epochs=1)
    result = train(cfg)
    assert (corpus / "model.run").exists()
    assert (corpus / "model.run.json").exists()
    assert (corpus / "model.run.last").exists()
    assert len(result.history) == 1
    assert result.partial_fraction == 0.0


def test_loss_decreases_over_training(corpus):
    cfg = small_config(corpus, epochs=5)
    result = train(cfg)
    assert result.history[4].train_loss < result.history[0].train_loss


def test_seeded_runs_are_bitwise_identical(corpus):
    cfg_a = small_config(corpus, name="a.run", epochs=2)
    cfg_b = small_config(corpus, name="b.run", epochs=2)
    train(cfg_a)
    train(cfg_b)
    assert (corpus / "a.run").read_bytes() == (corpus / "b.run").read_bytes()
    assert (corpus / "a.run.last").read_bytes() == (corpus / "b.run.last").read_bytes()


def test_resume_reproduces_uninterrupted_trajectory(corpus):
    straight = train(small_config(corpus, name="full.run", epochs=4, patience=100))
    train(small_config(corpus, name="part.run", epochs=2, patience=100))
    resumed = train(
        small_config(corpus, name="part.run", epochs=4, patience=100), resume=True
    )
    straight_losses = [s.train_loss for s in straight.history[2:]]
    resumed_losses = [s.train_loss for s in resumed.history]
    assert resumed_losses == pytest.approx(straight_losses, rel=1e-12)
    assert (corpus / "full.run.last").read_bytes() == (corpus / "part.run.last").read_bytes()


def test_resume_stops_where_the_uninterrupted_run_stops(corpus):
    # The resumed run forgot how long it had gone without improving, and
    # trained one epoch more than the uninterrupted one.
    def config(name, epochs):
        return small_config(corpus, name=name, epochs=epochs, patience=1, seed=1,
                            embed_dim=4, hidden_dim=3, base_channels=2)

    straight = train(config("full.run", 8))
    train(config("part.run", 2))
    # The same .last file as saved before best_epoch was recorded.
    arrays, meta = load_checkpoint(corpus / "part.run.last")
    assert meta.pop("best_epoch") == 0
    save_checkpoint(corpus / "old.run.last", arrays, meta)
    shutil.copy(corpus / "part.run.last.json", corpus / "old.run.last.json")

    resumed = train(config("part.run", 8), resume=True)
    assert len(straight.history) < 8  # patience stopped it
    assert [s.epoch for s in resumed.history] == [s.epoch for s in straight.history[2:]]
    for suffix in ("", ".last"):
        assert (corpus / f"full.run{suffix}").read_bytes() == (corpus / f"part.run{suffix}").read_bytes()
    # The old file resumes as it always did: no epoch improves on epoch 0,
    # but it counts the epochs without improvement from its own, epoch 1.
    assert [s.dev_em for s in straight.history] == [0.0, 0.0, 0.0]
    assert [s.epoch for s in train(config("old.run", 8), resume=True).history] == [2, 3]

def test_checkpoint_round_trip_preserves_predictions(corpus):
    cfg = small_config(corpus, epochs=1)
    train(cfg)
    rw = load_model(str(corpus / "model.run"))
    assert rw.tokenization == "whitespace"
    # Save/load again: arrays and predictions identical.
    save_model(str(corpus / "copy.run"), rw)
    copy = load_model(str(corpus / "copy.run"))
    assert copy.model.state().keys() == rw.model.state().keys()
    for name, array in rw.model.state().items():
        assert np.array_equal(array, copy.model.state()[name])
    for ex in generate_synthetic(SyntheticSpec(num_examples=3, seed=2)):
        enc = encode_example(ex, rw.vocab, rw.conn, rw.k)
        assert np.array_equal(rw.model.predict_encoded(enc), copy.model.predict_encoded(enc))


def test_load_model_draws_no_random_numbers(corpus, monkeypatch):
    train(small_config(corpus, epochs=1))

    def no_draws(*args, **kwargs):
        raise AssertionError("loading a checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    rw = load_model(str(corpus / "model.run"))
    _, meta, adam = load_run(str(corpus / "model.run.last"))
    assert adam.step == meta["adam_step"] > 0
    assert [m.shape for m in adam.m] == [p.data.shape for p in rw.model.parameters().values()]


def test_bench_reports_schema_and_one_invocation(corpus):
    cfg = small_config(corpus, epochs=1)
    train(cfg)
    rw = load_model(str(corpus / "model.run"))
    examples = generate_synthetic(SyntheticSpec(num_examples=12, seed=3))
    report = bench_latency(rw, examples, warmup=1)
    assert set(report) >= {"mean_ms", "median_ms", "p95_ms", "invocations"}
    assert report["invocations"] == 1
    assert report["mean_ms"] > 0


def test_rewrite_of_a_list_equals_one_at_a_time(monkeypatch):
    """35 examples, in generation order, with two empty-context ones among
    them: three runs of mixed grids, which must not change any rewrite."""
    examples = generate_synthetic(SyntheticSpec(num_examples=33, seed=23))
    empty = [DialogueExample.create([], word_tokens(s.split())) for s in ("where is it", "and then")]
    examples = examples[:5] + empty[:1] + examples[5:20] + empty[1:] + examples[20:]
    vocab = Vocabulary.from_examples(examples)
    model = RewriteModel(ModelConfig(vocab_size=vocab.size, embed_dim=8, hidden_dim=6, base_channels=2), seed=4)
    rw = Rewriter(model, vocab, EMPTY_CONNECTION_WORDS, 0, "whitespace")
    sizes = [(enc.m, enc.nx) for enc in (encode_example(ex, vocab) for ex in examples)]
    assert sizes != sorted(sizes) and len(examples) > 2 * PREDICT_BATCH

    before = model.invocations
    batched = rw.rewrite(examples)
    assert model.invocations - before == len(examples)
    single = [rw.rewrite([ex])[0] for ex in examples]
    assert [(texts(out), program) for out, program in batched] == [(texts(out), program) for out, program in single]
    assert sum(bool(program.substitutes or program.inserts) for _, program in batched) > len(examples) // 2

    def no_model_call(*args, **kwargs):
        raise AssertionError("rewrite([]) called the model")

    monkeypatch.setattr(model, "feature_batch", no_model_call)
    before = model.invocations
    assert rw.rewrite([]) == [] and model.invocations == before


def test_training_with_connection_words(tmp_path):
    """Corpora whose rewrites need out-of-dialogue words train via the
    connection tail; the sidecar makes inference self-describing."""
    import json

    from editseg.data import load_dataset
    from editseg.dialogue import join_context, texts

    rows = []
    fillers = ["red", "blue", "tall", "old", "new", "grey", "big", "wee"]
    for i in range(24):
        a, b = fillers[i % 8], fillers[(i + 3) % 8]
        rows.append(
            {
                "context": [f"that {a} capital city"],
                "current": f"the {b} capital city",
                "rewrite": f"the {b} capital of city",
            }
        )
    for name, chunk in (("train.jsonl", rows[:16]), ("dev.jsonl", rows[16:])):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            for row in chunk:
                fh.write(json.dumps(row) + "\n")

    cfg = small_config(tmp_path, epochs=1, connection_k=2, batch_size=4)
    result = train(cfg)
    assert result.partial_fraction == 0.0, "connection tail must make labels full"

    sidecar = json.loads((tmp_path / "model.run.json").read_text(encoding="utf-8"))
    assert sidecar["connection_words"] == ["of"]
    assert sidecar["connection_k"] == 1  # clamped to the derived list length

    rw = load_model(str(tmp_path / "model.run"))
    ex = load_dataset(tmp_path / "dev.jsonl")[0]
    c = join_context(ex, rw.conn, rw.k)
    assert texts(c.tokens)[-1] == "of"


def test_empty_context_examples_are_skipped_not_fatal(tmp_path):
    import json

    rows = [
        {"context": [], "current": "a b", "rewrite": "a b"},
        {"context": ["c d"], "current": "a b", "rewrite": "a b"},
    ]
    for name in ("train.jsonl", "dev.jsonl"):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    logs = []
    cfg = small_config(tmp_path, epochs=1, batch_size=2)
    result = train(cfg, log=logs.append)
    assert any("empty-context" in line for line in logs)
    assert len(result.history) == 1


# Scripted dev metrics, (cell accuracy, exact match) per epoch. EM first
# reaches 0.5 at epoch 1 and cell accuracy 0.9 at epoch 2, but EM dips below
# 0.5 there, so both targets first hold together at epoch 3.
DEV_METRICS = [(0.5, 0.0), (0.7, 0.5), (0.9, 0.25), (0.95, 0.5), (0.99, 1.0), (1.0, 1.0)]
TARGET_CASES = {
    "em_only": ({"target_dev_em": 0.5}, 2),
    "cell_acc_only": ({"target_dev_cell_acc": 0.9}, 3),
    "both": ({"target_dev_em": 0.5, "target_dev_cell_acc": 0.9}, 4),
    "none": ({}, len(DEV_METRICS)),
}


@pytest.mark.parametrize("case", sorted(TARGET_CASES))
def test_training_stops_at_first_epoch_meeting_every_set_target(corpus, monkeypatch, case):
    targets, epochs_run = TARGET_CASES[case]
    scripted = iter(DEV_METRICS)
    monkeypatch.setattr(training, "evaluate_model", lambda model, batch, examples: next(scripted))
    cfg = small_config(
        corpus, epochs=len(DEV_METRICS), patience=100, embed_dim=4, hidden_dim=3, base_channels=2, **targets
    )
    result = train(cfg)
    assert [(h.dev_cell_acc, h.dev_em) for h in result.history] == DEV_METRICS[:epochs_run]



def test_batches_are_runs_of_the_size_order_cut_afresh_each_epoch():
    examples = generate_synthetic(SyntheticSpec(num_examples=200, seed=3))
    vocab = Vocabulary.from_examples(examples)
    encoded = [encode_example(ex, vocab) for ex in examples]

    def size(i):
        return encoded[i].m, encoded[i].nx

    epochs = [training._batches_by_size(encoded, training._epoch_rng(5, e), 16) for e in range(4)]
    for batches in epochs:
        assert sorted(i for b in batches for i in b) == list(range(len(encoded)))
        assert len(batches) == 13 and sum(len(b) != 16 for b in batches) <= 2  # ceil(200 / 16)
        # Runs of one list sorted by (m, nx): put in order, each ends at or
        # below the size the next one starts with.
        spans = sorted((min(map(size, b)), max(map(size, b))) for b in batches)
        assert all(hi <= next_lo for (_, hi), (next_lo, _) in zip(spans, spans[1:]))
    assert epochs[0] == training._batches_by_size(encoded, training._epoch_rng(5, 0), 16)
    members = [{frozenset(b) for b in batches} for batches in epochs]
    assert all(a != b for a, b in zip(members, members[1:]))

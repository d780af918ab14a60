"""Training loop: smoke, learning signal, determinism, and resume."""

import numpy as np
import pytest

from editseg import training
from editseg.data import SyntheticSpec, generate_synthetic, save_dataset
from editseg.training import (
    RunConfig,
    bench_latency,
    load_model,
    save_model,
    train,
)
from editseg.model import encode_example


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
    _, meta, adam = training._load_run(str(corpus / "model.run.last"))
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

"""Training loop, evaluation, and the latency bench.

Training is deterministic end to end: parameter init draws from the run
seed, each epoch's shuffle comes from a (seed, epoch) derived generator, and
batches group examples of similar grid sizes to limit padding waste and run
in a shuffled order. The best-dev-EM checkpoint is kept alongside a
resumable "last" checkpoint carrying the optimizer state and the best
epoch, so a resumed run stops where an uninterrupted one would.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernels as K
from .checkpoint import CheckpointError, load_run, save_model
from .data import DatasetError, load_dataset
from .dialogue import (
    ConnectionWordList,
    EMPTY_CONNECTION_WORDS,
    Tokenization,
    derive_connection_words,
    texts,
)
from .generation import rewrite_from_matrix
from .model import EncodedExample, ModelConfig, RewriteModel, Rewriter, Vocabulary, encode_example
from .supervision import Coverage


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries diagnostics."""

    def __init__(self, epoch: int, batch_ids: list[int], loss_history: list[float]):
        super().__init__(
            f"non-finite loss at epoch {epoch}; last batch ids {batch_ids}; "
            f"recent losses {loss_history[-5:]}"
        )
        self.epoch = epoch
        self.batch_ids = batch_ids
        self.loss_history = loss_history


# The type each RunConfig field must have; bools are refused as numbers.
_FIELD_TYPES = {
    **dict.fromkeys(
        ("train_path", "dev_path", "checkpoint_path", "tokenization"),
        (str, os.PathLike),
    ),
    **dict.fromkeys(("epochs", "batch_size", "seed", "patience", "connection_k"), numbers.Integral),
    "lr": numbers.Real,
    **dict.fromkeys(("target_dev_em", "target_dev_cell_acc"), (numbers.Real, type(None))),
}
# The least value each integer field can run with.
_FIELD_MINIMA = {
    **dict.fromkeys(("batch_size", "epochs"), 1),
    **dict.fromkeys(("patience", "connection_k", "seed"), 0),
}


@dataclass
class RunConfig:
    """Everything one training run needs; JSON-serializable.

    ``embed_dim``, ``hidden_dim``, ``base_channels`` and ``class_weights``
    are ``ModelConfig``'s, and ``ModelConfig`` checks them.
    """

    train_path: str = ""
    dev_path: str = ""
    checkpoint_path: str = "model.run"

    embed_dim: int = 100
    hidden_dim: int = 200
    base_channels: int = 32
    class_weights: tuple[float, float, float] = (1.0, 5.0, 5.0)

    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    patience: int = 10

    tokenization: str = Tokenization.WHITESPACE.value
    connection_k: int = 0

    # Optional early exit once dev metrics reach targets (None disables).
    target_dev_em: Optional[float] = None
    target_dev_cell_acc: Optional[float] = None

    def __post_init__(self):
        # Config files are user input: a wrong type fails here, by name,
        # rather than as a TypeError somewhere inside training.
        for name, types in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config field {name} has the wrong type: {value!r}")
        # ModelConfig checks the model's fields; the data sets the vocabulary.
        self.class_weights = self.model_config(vocab_size=1).class_weights
        # JSON configs may hold NaN and Infinity, which no run can use.
        for name in ("lr", "target_dev_em", "target_dev_cell_acc"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"config field {name} must be finite, got {value!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        for name, least in _FIELD_MINIMA.items():
            if getattr(self, name) < least:
                raise ValueError(f"config field {name} must be at least {least}, got {getattr(self, name)}")
        Tokenization(self.tokenization)  # ValueError on an unknown mode

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size,
            embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim,
            base_channels=self.base_channels,
            class_weights=self.class_weights,
        )

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**d)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_cell_acc: float
    dev_em: float
    seconds: float


@dataclass
class TrainResult:
    best_checkpoint: str
    last_checkpoint: str
    best_dev_em: float
    history: list[EpochStats] = field(default_factory=list)
    partial_fraction: float = 0.0
    conn: ConnectionWordList = EMPTY_CONNECTION_WORDS  # the list the run used


# ---------------------------------------------------------------------------
# evaluation


def evaluate_model(model: RewriteModel, batch: list[EncodedExample], examples):
    """Dev metrics from one ``model.predict`` call: pooled unmasked cell
    accuracy and rewrite exact match."""
    correct = total = 0
    hits = 0
    for enc, ex, pred in zip(batch, examples, model.predict(batch)):
        correct += int((pred == enc.gold).sum())
        total += pred.size
        out, _ = rewrite_from_matrix(pred, enc.x, enc.c)
        hits += texts(out) == texts(ex.gold_rewrite)
    cell_acc = correct / total if total else 1.0
    return cell_acc, hits / len(batch)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    # Derived, not streamed: resuming at epoch e replays the same shuffles.
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, 7919, epoch)))


def _batches_by_size(encoded: list[EncodedExample], rng: np.random.Generator, batch_size: int):
    """One epoch's batches: runs of examples of similar grid size, in a random order.

    The examples are shuffled and then sorted by exact (m, nx), so the
    shuffle only breaks ties. The sorted list is cut into runs of
    ``batch_size`` from a random phase: the first run takes ``first``
    examples, drawn no shorter than the short last run of a plain cut, so
    there are still ceil(n / batch_size) runs and no extra optimizer step.
    When ``batch_size`` divides n the phase is fixed. The runs are visited
    in a shuffled order.

    Padding is masked out of batch norm, so a batch's members are the only
    noise in its statistics. Cut at a fixed phase, the sorted list would put
    the same examples together in every epoch, and an unshuffled order would
    sweep from the smallest grids to the largest.
    """
    n = len(encoded)
    order = rng.permutation(n)
    ranked = sorted(order, key=lambda i: (encoded[i].m, encoded[i].nx))
    short = (n - 1) % batch_size + 1
    first = int(rng.integers(short, batch_size + 1))
    cuts = [0, *range(first, n, batch_size), n]
    batches = [ranked[a:b] for a, b in zip(cuts, cuts[1:])]
    return [batches[i] for i in rng.permutation(len(batches))]


# ---------------------------------------------------------------------------
# training


def train(config: RunConfig, log=None, resume: bool = False) -> TrainResult:
    log = log or (lambda msg: None)
    best_path = str(config.checkpoint_path)
    # Saving to such a path fails, but only once the first epoch has run.
    if Path(best_path).is_dir():
        raise IsADirectoryError(f"checkpoint path {best_path} is a directory")
    if not Path(best_path).parent.is_dir():
        raise FileNotFoundError(f"checkpoint path {best_path} is in no existing directory")
    mode = Tokenization(config.tokenization)
    train_examples = load_dataset(config.train_path, mode, require_rewrite=True)
    dev_examples = load_dataset(config.dev_path, mode, require_rewrite=True)
    if not dev_examples:
        raise DatasetError(f"{config.dev_path}: no dev examples to evaluate")

    if config.connection_k > 0:
        conn = derive_connection_words(train_examples, config.connection_k)
        k = min(config.connection_k, len(conn.words))
    else:
        conn, k = EMPTY_CONNECTION_WORDS, 0
    vocab = Vocabulary.from_examples(train_examples, conn)

    last_path = best_path + ".last"
    start_epoch = best_epoch = 0
    best_em = -1.0
    history: list[EpochStats] = []

    if resume and Path(last_path).exists():
        rw, meta, adam = load_run(last_path)
        if adam is None or "epoch" not in meta:
            raise CheckpointError(f"{last_path}: resuming needs the epoch and adam_step metadata")
        # The vocabulary comes from the checkpoint; all else must match the run config.
        saved = rw.model.config.to_dict()
        saved |= {"tokenization": rw.tokenization, "connection_words": rw.conn.words[: rw.k]}
        wanted = config.model_config(rw.vocab.size).to_dict()
        wanted |= {"tokenization": mode.value, "connection_words": conn.words[:k]}
        differ = [f"{key} (checkpoint {v!r}, run config {wanted[key]!r})" for key, v in saved.items() if v != wanted[key]]
        if differ:
            raise CheckpointError(f"{last_path}: the checkpoint differs from the run config in {', '.join(differ)}")
        start_epoch = meta["epoch"] + 1
        best_em = float(meta.get("best_dev_em", -1.0))
        # A file saved before best_epoch was recorded counts from its own epoch.
        best_epoch = meta.get("best_epoch", meta["epoch"])
        log(f"resuming from {last_path} at epoch {start_epoch}")
    else:
        model = RewriteModel(config.model_config(vocab.size), seed=config.seed)
        adam = K.AdamState.for_params(list(model.parameters().values()))
        rw = Rewriter(model, vocab, conn, k, mode.value)
    model = rw.model

    train_enc = [encode_example(ex, rw.vocab, rw.conn, rw.k, with_gold=True) for ex in train_examples]
    dev_enc = [encode_example(ex, rw.vocab, rw.conn, rw.k, with_gold=True) for ex in dev_examples]
    # Context-free examples have zero-row matrices: no cells to supervise.
    skipped = sum(e.m == 0 for e in train_enc)
    if skipped:
        log(f"skipping {skipped} empty-context training examples (no matrix cells)")
        train_enc = [e for e in train_enc if e.m > 0]
    if not train_enc:
        raise DatasetError(f"{config.train_path}: no trainable examples (none with a nonempty context)")
    partial = sum(e.coverage is Coverage.PARTIAL for e in train_enc) / max(1, len(train_enc))
    if partial:
        log(f"{partial:.1%} of training examples have partial label coverage")

    params = model.parameters()
    param_list = list(params.values())
    loss_history: list[float] = []

    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        batches = _batches_by_size(train_enc, _epoch_rng(config.seed, epoch), config.batch_size)
        epoch_loss = 0.0
        for batch_ids in batches:
            batch = [train_enc[i] for i in batch_ids]
            model.zero_grad()
            loss = model.forward_loss(batch)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(epoch, list(map(int, batch_ids)), loss_history)
            loss.backward()
            K.adam_step(param_list, [p.grad for p in param_list], adam, config.lr)
            loss_history.append(value)
            epoch_loss += value * len(batch)
        epoch_loss /= len(train_enc)

        cell_acc, em = evaluate_model(model, dev_enc, dev_examples)
        stats = EpochStats(epoch, epoch_loss, cell_acc, em, time.perf_counter() - t0)
        history.append(stats)
        log(
            f"epoch {epoch:3d} loss {epoch_loss:.4f} dev cell-acc {cell_acc:.4f} "
            f"dev EM {em:.4f} ({stats.seconds:.1f}s)"
        )

        if em > best_em:
            best_em, best_epoch = em, epoch
            save_model(best_path, rw, meta={"epoch": epoch, "best_dev_em": best_em})
        save_model(last_path, rw, adam=adam, meta={"epoch": epoch, "best_dev_em": best_em, "best_epoch": best_epoch})

        targets = ((em, config.target_dev_em), (cell_acc, config.target_dev_cell_acc))
        reached = [value >= target for value, target in targets if target is not None]
        if reached and all(reached):
            log(f"targets reached at epoch {epoch}; stopping")
            break
        if epoch - best_epoch > config.patience:
            log(f"no dev-EM improvement for {config.patience} epochs; stopping")
            break

    return TrainResult(best_path, last_path, best_em, history, partial, rw.conn)


# ---------------------------------------------------------------------------
# latency benchmark


def bench_latency(rw: Rewriter, examples, warmup=3):
    """Per-example wall time of ``rw.rewrite([ex])``: encode, predict,
    standardize and apply, at batch 1.

    Tokenization and IO stay outside the timer. ``invocations`` is the most
    segmentation-layer passes any example took; the one-pass property needs 1.
    """
    for ex in examples[:warmup]:
        rw.rewrite([ex])

    times, out_lens, invocations = [], [], []
    for ex in examples:
        before = rw.model.invocations
        t0 = time.perf_counter()
        [(out, _)] = rw.rewrite([ex])
        times.append((time.perf_counter() - t0) * 1000.0)
        invocations.append(rw.model.invocations - before)
        out_lens.append(len(out))

    times_arr = np.array(times)
    corr = 0.0
    if len(set(out_lens)) > 1 and times_arr.std() > 0:
        corr = float(np.corrcoef(times_arr, np.array(out_lens, dtype=float))[0, 1])
    return {
        "mean_ms": float(times_arr.mean()),
        "median_ms": float(np.median(times_arr)),
        "p95_ms": float(np.percentile(times_arr, 95)),
        "invocations": int(max(invocations)),
        "examples": len(times),
        "corr_time_vs_output_len": corr,
    }

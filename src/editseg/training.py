"""Training loop, checkpoint persistence, evaluation, and the latency bench.

Training is deterministic end to end: parameter init draws from the run
seed, each epoch's shuffle comes from a (seed, epoch) derived generator, and
batches group examples with similar padded grid sizes to limit padding
waste. The best-dev-EM checkpoint is kept alongside a resumable "last"
checkpoint carrying the optimizer state.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import kernels as K
from .checkpoint import FORMAT_TAG, CheckpointError, load_checkpoint, save_checkpoint
from .data import load_dataset
from .dialogue import (
    ConnectionWordList,
    EMPTY_CONNECTION_WORDS,
    Tokenization,
    derive_connection_words,
    texts,
)
from .generation import EditProgram, rewrite_from_matrix
from .model import (
    EncodedExample,
    ModelConfig,
    RewriteModel,
    Vocabulary,
    _pad4,
    array_table,
    encode_example,
    is_parameter,
)
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
    **dict.fromkeys(
        ("embed_dim", "hidden_dim", "base_channels", "epochs", "batch_size", "seed", "patience", "connection_k"),
        numbers.Integral,
    ),
    "lr": numbers.Real,
    **dict.fromkeys(("target_dev_em", "target_dev_cell_acc"), (numbers.Real, type(None))),
}


@dataclass
class RunConfig:
    """Everything one training run needs; JSON-serializable."""

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
        cw = self.class_weights
        if not isinstance(cw, (list, tuple)) or len(cw) != 3 or not all(
            isinstance(w, numbers.Real) and not isinstance(w, bool) for w in cw
        ):
            raise ValueError(f"class_weights must be a list of 3 numbers, got {cw!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        Tokenization(self.tokenization)  # ValueError on an unknown mode
        self.class_weights = tuple(float(w) for w in cw)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
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
    """Dev metrics: pooled unmasked cell accuracy and rewrite exact match."""
    correct = total = 0
    hits = 0
    for enc, ex in zip(batch, examples):
        pred = model.predict_encoded(enc)
        correct += int((pred == enc.gold).sum())
        total += pred.size
        out, _ = rewrite_from_matrix(pred, enc.x, enc.c)
        hits += texts(out) == texts(ex.gold_rewrite)
    cell_acc = correct / total if total else 1.0
    return cell_acc, hits / len(batch)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    # Derived, not streamed: resuming at epoch e replays the same shuffles.
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, 7919, epoch)))


def _batches_by_size(encoded: list[EncodedExample], order: np.ndarray, batch_size: int):
    """Chunk a shuffled order into batches of similar padded grid sizes."""
    ranked = sorted(order, key=lambda i: (_pad4(encoded[i].m), _pad4(encoded[i].nx)))
    return [ranked[i : i + batch_size] for i in range(0, len(ranked), batch_size)]


# ---------------------------------------------------------------------------
# checkpoint plumbing


class Rewriter(NamedTuple):
    """A trained model and what it was trained with: everything a rewrite needs."""

    model: RewriteModel
    vocab: Vocabulary
    conn: ConnectionWordList
    k: int
    tokenization: str

    def rewrite(self, example) -> tuple[list, EditProgram]:
        """One model pass, then standardize and apply: (tokens, program)."""
        enc = encode_example(example, self.vocab, self.conn, self.k)
        return rewrite_from_matrix(self.model.predict_encoded(enc), enc.x, enc.c)


# Run metadata a checkpoint may carry, each with the test its value must pass.
_META_CHECKS = {
    "adam_step": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "epoch": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "best_dev_em": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number"),
}


def _adam_arrays(model: RewriteModel, adam: K.AdamState) -> dict[str, np.ndarray]:
    """Adam's moments by checkpoint name: ``adam.m.<parameter>``, ``adam.v.<parameter>``."""
    names = list(model.parameters())
    return {
        f"adam.{kind}.{name}": moment
        for kind, moments in (("m", adam.m), ("v", adam.v))
        for name, moment in zip(names, moments)
    }


def save_model(path, rw: Rewriter, adam: K.AdamState | None = None, meta: dict | None = None):
    meta = dict(meta or {})
    arrays = rw.model.state()
    if adam is not None:
        meta["adam_step"] = adam.step
        arrays |= _adam_arrays(rw.model, adam)
    save_checkpoint(path, arrays, meta)
    sidecar = {
        "format": FORMAT_TAG,
        "model_config": rw.model.config.to_dict(),
        "tokenization": rw.tokenization,
        "vocab": rw.vocab.words,
        "connection_words": list(rw.conn.words),
        "connection_k": rw.k,
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, ensure_ascii=False, sort_keys=True)


def load_model(path) -> Rewriter:
    """Rebuild a trained model from a checkpoint pair (``path`` and its sidecar).

    The arrays must have exactly the names and shapes that ``array_table``
    lists for the sidecar's config; anything else raises ``CheckpointError``.
    They are cast to the model's float32, so float64 files load too. The
    model is built from them directly; nothing is drawn.
    """
    return _load_run(path)[0]


def _load_run(path) -> tuple[Rewriter, dict, K.AdamState | None]:
    """``load_model`` plus the run's metadata and, if saved, the Adam state."""
    arrays, meta = load_checkpoint(path)
    sidecar_path = str(path) + ".json"
    with open(sidecar_path, encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
            config = ModelConfig.from_dict(sidecar["model_config"])
            tokenization = Tokenization(sidecar["tokenization"]).value
            words, conn_words = sidecar["vocab"], sidecar.get("connection_words", [])
            k = sidecar.get("connection_k", 0)
            if not (_is_str_list(words) and _is_str_list(conn_words)):
                raise TypeError("vocab and connection_words must be lists of strings")
            if type(k) is not int or not 0 <= k <= len(conn_words):
                raise ValueError(f"connection_k {k!r} is not an integer in [0, {len(conn_words)}]")
            vocab = Vocabulary(words)
            conn = ConnectionWordList.from_ranked(conn_words)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{sidecar_path}: bad sidecar: {exc!r}") from None
    for key, (valid, what) in _META_CHECKS.items():
        if key in meta and not valid(meta[key]):
            raise CheckpointError(f"{path}: {key} {meta[key]!r} is not {what}")
    if vocab.size != config.vocab_size:
        raise CheckpointError(
            f"{sidecar_path}: {vocab.size} vocabulary ids but vocab_size {config.vocab_size}"
        )
    expected = array_table(config)
    params = [name for name in expected if is_parameter(name)]
    if "adam_step" in meta:
        expected |= {f"adam.{kind}.{name}": expected[name] for kind in "mv" for name in params}
    if set(arrays) != set(expected):
        raise CheckpointError(
            f"{path}: arrays missing {sorted(set(expected) - set(arrays))}, "
            f"unexpected {sorted(set(arrays) - set(expected))}"
        )
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: array {name!r} has shape {list(arrays[name].shape)}, "
                f"but the sidecar's model config needs {list(shape)}"
            )
    model = RewriteModel.from_arrays(config, arrays)
    adam = None
    if "adam_step" in meta:
        m, v = ([arrays[f"adam.{kind}.{name}"].astype(np.float32) for name in params] for kind in "mv")
        adam = K.AdamState(meta["adam_step"], m, v)
    return Rewriter(model, vocab, conn, k, tokenization), meta, adam


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# ---------------------------------------------------------------------------
# training


def train(config: RunConfig, log=None, resume: bool = False) -> TrainResult:
    log = log or (lambda msg: None)
    mode = Tokenization(config.tokenization)
    train_examples = load_dataset(config.train_path, mode, require_rewrite=True)
    dev_examples = load_dataset(config.dev_path, mode, require_rewrite=True)

    if config.connection_k > 0:
        conn = derive_connection_words(train_examples, config.connection_k)
        k = min(config.connection_k, len(conn.words))
    else:
        conn, k = EMPTY_CONNECTION_WORDS, 0
    vocab = Vocabulary.from_examples(train_examples, conn)

    last_path = str(config.checkpoint_path) + ".last"
    best_path = str(config.checkpoint_path)
    start_epoch = 0
    best_em = -1.0
    history: list[EpochStats] = []

    if resume and Path(last_path).exists():
        rw, meta, adam = _load_run(last_path)
        if adam is None or "epoch" not in meta:
            raise CheckpointError(f"{last_path}: resuming needs the epoch and adam_step metadata")
        start_epoch = meta["epoch"] + 1
        best_em = float(meta.get("best_dev_em", -1.0))
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
        raise ValueError("no trainable examples (all have empty contexts)")
    partial = sum(e.coverage is Coverage.PARTIAL for e in train_enc) / max(1, len(train_enc))
    if partial:
        log(f"{partial:.1%} of training examples have partial label coverage")

    params = model.parameters()
    param_list = list(params.values())
    loss_history: list[float] = []
    epochs_since_best = 0

    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        rng = _epoch_rng(config.seed, epoch)
        order = rng.permutation(len(train_enc))
        batches = _batches_by_size(train_enc, order, config.batch_size)
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
            best_em = em
            epochs_since_best = 0
            save_model(best_path, rw, meta={"epoch": epoch, "best_dev_em": best_em})
        else:
            epochs_since_best += 1
        save_model(last_path, rw, adam=adam, meta={"epoch": epoch, "best_dev_em": best_em})

        targets = ((em, config.target_dev_em), (cell_acc, config.target_dev_cell_acc))
        reached = [value >= target for value, target in targets if target is not None]
        if reached and all(reached):
            log(f"targets reached at epoch {epoch}; stopping")
            break
        if epochs_since_best > config.patience:
            log(f"no dev-EM improvement for {config.patience} epochs; stopping")
            break

    return TrainResult(best_path, last_path, best_em, history, partial, rw.conn)


# ---------------------------------------------------------------------------
# latency benchmark


def bench_latency(rw: Rewriter, examples, warmup=3):
    """Per-example wall time of ``rw.rewrite``: encode, predict, standardize
    and apply, at batch 1.

    Tokenization and IO stay outside the timer. Also verifies the one-pass
    property: exactly one model invocation per example.
    """
    for ex in examples[:warmup]:
        rw.rewrite(ex)

    times, out_lens, invocations = [], [], []
    for ex in examples:
        before = rw.model.invocations
        t0 = time.perf_counter()
        out, _ = rw.rewrite(ex)
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

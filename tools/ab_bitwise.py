"""Compare two source trees' model arithmetic bit for bit.

    python tools/ab_bitwise.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. Each runs the same
probe in its own subprocess, with one BLAS thread and its own ``src/`` on
the import path. The probe seeds a model at toy dims (32/32/8) and at paper
dims (100/200/32) and runs two batches of synthetic examples through it: a
padded batch of 16 and a batch of one. For each batch it records the
eval-mode logits of a ``no_grad`` pass, then the training loss and the
gradient of every parameter (36 arrays).

The probe then trains 2 epochs at toy dims on the same seeded corpus, 64
training and 16 dev examples, in a temporary directory, and records every
array of the best checkpoint and of its ``.last`` file (weights, batch-norm
statistics and Adam moments).

Every array is hashed. The script prints, per group (dims and batch, or
checkpoint), how many arrays are bitwise equal and, when some are not, the
largest difference relative to an array's scale, max |a - b| / max |a|,
then the differing arrays, largest first, at most ``SHOWN`` of them. It
exits 0 when every array is bitwise equal and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DIMS = {
    "toy": {"embed_dim": 32, "hidden_dim": 32, "base_channels": 8},
    "paper": {"embed_dim": 100, "hidden_dim": 200, "base_channels": 32},
}
BATCHES = {"padded16": 16, "batch1": 1}
CHECKPOINTS = {"train/best": "", "train/last": ".last"}
SEED = 5  # corpus, weights and training
SHOWN = 8  # differing arrays listed per group


def probe(out_path: str) -> None:
    """Run in a tree's subprocess: write every probed array to ``out_path``."""
    import editseg
    from editseg.checkpoint import load_checkpoint
    from editseg.model import ModelConfig, RewriteModel, Vocabulary, encode_example

    corpus = editseg.generate_synthetic(editseg.SyntheticSpec(num_examples=80, seed=SEED))
    examples = corpus[:16]
    vocab = Vocabulary.from_examples(examples)
    encoded = [encode_example(ex, vocab, with_gold=True) for ex in examples]
    arrays = {"_editseg_file": np.array(editseg.__file__)}
    for dims_name, dims in DIMS.items():
        for batch_name, size in BATCHES.items():
            model = RewriteModel(ModelConfig(vocab_size=vocab.size, **dims), seed=SEED)
            batch = encoded[:size]
            key = f"{dims_name}/{batch_name}"
            with editseg.no_grad():
                features, _ = model.feature_batch(batch)
                arrays[f"{key}/logits"] = model.segmentation_layer(features, training=False).data
            loss = model.forward_loss(batch)
            loss.backward()
            arrays[f"{key}/loss"] = np.asarray(loss.data)
            for name, t in model.parameters().items():
                arrays[f"{key}/grad/{name}"] = t.grad
    with tempfile.TemporaryDirectory() as tmp:
        editseg.save_dataset(corpus[:64], f"{tmp}/train.jsonl")
        editseg.save_dataset(corpus[64:], f"{tmp}/dev.jsonl")
        config = editseg.RunConfig(
            train_path=f"{tmp}/train.jsonl",
            dev_path=f"{tmp}/dev.jsonl",
            checkpoint_path=f"{tmp}/model.run",
            epochs=2,
            seed=SEED,
            **DIMS["toy"],
        )
        editseg.train(config)
        for group, suffix in CHECKPOINTS.items():
            saved, _ = load_checkpoint(config.checkpoint_path + suffix)
            arrays |= {f"{group}/{name}": a for name, a in saved.items()}
    np.savez(out_path, **arrays)


def run_tree(tree: Path, out_path: Path) -> dict[str, np.ndarray]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, __file__, "--probe", str(out_path)], env=env, check=True)
    with np.load(out_path) as data:
        arrays = dict(data)
    loaded = Path(str(arrays.pop("_editseg_file"))).resolve()
    if not loaded.is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"{tree}: the probe imported editseg from {loaded}")
    return arrays


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max |a|, in float64; inf when a is all zero and b is not."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    diff, scale = np.max(np.abs(a - b), initial=0.0), np.max(np.abs(a), initial=0.0)
    return diff / scale if scale > 0 else (0.0 if diff == 0 else np.inf)


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(str((a.dtype, a.shape)).encode() + np.ascontiguousarray(a).tobytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the PARENT and CHANGE trees")
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_tree(args.parent, Path(tmp) / "parent.npz")
        change = run_tree(args.change, Path(tmp) / "change.npz")
    if parent.keys() != change.keys():
        print(f"array names differ: {sorted(parent.keys() ^ change.keys())}")
        return 1
    differing = 0
    for group in [*(f"{d}/{b}" for d in DIMS for b in BATCHES), *CHECKPOINTS]:
        names = [k for k in parent if k.startswith(group + "/")]
        # A changed shape sorts first, as an infinite difference.
        rel = {
            k[len(group) + 1 :]: np.inf if parent[k].shape != change[k].shape else rel_diff(parent[k], change[k])
            for k in names
            if parent[k].shape != change[k].shape or digest(parent[k]) != digest(change[k])
        }
        differing += len(rel)
        line = f"{group}: {len(names) - len(rel)} of {len(names)} arrays bitwise equal"
        print(line + (f", max rel diff {max(rel.values()):.3g}" if rel else ""))
        ranked = sorted(rel, key=rel.get, reverse=True)
        for name in ranked[:SHOWN]:
            k = f"{group}/{name}"
            if parent[k].shape != change[k].shape:
                print(f"  {name}: shape {parent[k].shape} -> {change[k].shape}")
            else:
                print(f"  {name}: max rel diff {rel[name]:.3g}")
        if len(ranked) > SHOWN:
            print(f"  ... and {len(ranked) - SHOWN} more")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two source trees' model arithmetic bit for bit.

    python tools/ab_bitwise.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. Each runs the same
probe in its own subprocess, with one BLAS thread and its own ``src/`` on
the import path. The probe seeds a model at toy dims (32/32/8) and at paper
dims (100/200/32) and runs two batches of synthetic examples through it: a
padded batch of 16 and a batch of one. For each batch it records the
eval-mode logits of a ``no_grad`` pass, then the training loss and the
gradient of every parameter (36 arrays).

Every array is hashed. The script prints, per dims and batch, how many
arrays are bitwise equal, and for each one that is not, its largest
difference relative to the array's scale, max |a - b| / max |a|. It exits
0 when every array is bitwise equal and 1 otherwise.
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
SEED = 5  # corpus and weights


def probe(out_path: str) -> None:
    """Run in a tree's subprocess: write every probed array to ``out_path``."""
    import editseg
    from editseg.model import ModelConfig, RewriteModel, Vocabulary, encode_example

    examples = editseg.generate_synthetic(editseg.SyntheticSpec(num_examples=16, seed=SEED))
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
    for group in (f"{d}/{b}" for d in DIMS for b in BATCHES):
        names = [k for k in parent if k.startswith(group + "/")]
        diffs = {k: parent[k].shape != change[k].shape or digest(parent[k]) != digest(change[k]) for k in names}
        print(f"{group}: {len(names) - sum(diffs.values())} of {len(names)} arrays bitwise equal")
        for k in names:
            if diffs[k]:
                differing += 1
                if parent[k].shape != change[k].shape:
                    print(f"  {k[len(group) + 1:]}: shape {parent[k].shape} -> {change[k].shape}")
                else:
                    print(f"  {k[len(group) + 1:]}: max rel diff {rel_diff(parent[k], change[k]):.3g}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

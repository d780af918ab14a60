"""Workload and fixture definitions shared by the benchmark and the fixture trainer.

Every input is generated from a seed. The run seed drives the serving corpus
and the training corpus of a run; the fixture models are trained once per
source tree on corpora drawn from fixed seeds, so every run of a workload
serves with the same model.

Run corpora are stratified by padded grid size: each seed's corpus has the
same number of examples of each padded (rows, columns) grid, in the shares a
large reference corpus of the same spec has. Compute cost follows the padded
grid, and grid sizes are few and far apart, so without this a seed that drew
a few more large grids would move the latency median by several percent.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

PAPER_DIMS = {"embed_dim": 100, "hidden_dim": 200, "base_channels": 32}  # ModelConfig defaults
TOY_DIMS = {"embed_dim": 32, "hidden_dim": 32, "base_channels": 8}  # README / acceptance dims

PAPER_SPEC = {}  # SyntheticSpec defaults: 1-2 turns, 4-9-word utterances
LONG_SPEC = {
    "vocab_size": 100,
    "context_turns": (2, 3),
    "utterance_len": (8, 14),
    "substitutes": (0, 3),
    "inserts": (0, 2),
}

BATCH_SIZE = 16
REFERENCE_EXAMPLES = 2000
POOL_FACTOR = 3


@dataclass(frozen=True)
class Fixture:
    """A model trained once per source tree, served by every serve phase."""

    dims: dict
    spec: dict
    train_examples: int
    dev_examples: int
    epochs: int
    lr: float
    seed: int


FIXTURES = {
    "paper": Fixture(PAPER_DIMS, PAPER_SPEC, 160, 32, 10, 3e-3, 11),
    "toy-long": Fixture(TOY_DIMS, LONG_SPEC, 480, 32, 12, 3e-3, 12),
}


@dataclass(frozen=True)
class Workload:
    """One closed-loop run: rounds of a set-up, a batch-1 pass, a batched
    pass and training calls.

    Dims and corpus spec are the fixture's. ``peak_after_training`` says
    whether ``peak_rss_mb`` is read at the end of the run or before the
    first training call.
    """

    name: str
    fixture: str
    serve_examples: int
    train_examples: int
    dev_examples: int
    epochs: int
    peak_after_training: bool

    @property
    def dims(self) -> dict:
        return FIXTURES[self.fixture].dims

    @property
    def spec(self) -> dict:
        return FIXTURES[self.fixture].spec


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve-paper", "paper", 192, 32, 8, 1, False),
        Workload("serve-toy-long", "toy-long", 256, 32, 8, 1, False),
        Workload("train-paper", "paper", 160, 32, 8, 3, True),
    )
}


def derived_seed(seed: int, tag: str) -> int:
    """A stable 32-bit seed for one use of the run seed."""
    entropy = [seed, *tag.encode("utf-8")]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def corpus(spec: dict, num_examples: int, seed: int):
    from editseg import SyntheticSpec, generate_synthetic

    return generate_synthetic(SyntheticSpec(num_examples=num_examples, seed=seed, **spec))


def pad4(n: int) -> int:
    """Padded grid side, as the model pads it (two 2x poolings)."""
    return max(4, -(-n // 4) * 4)


def grid_key(example) -> tuple[int, int]:
    from editseg import join_context

    return pad4(len(join_context(example))), pad4(len(example.incomplete) + 1)


def quotas(spec: dict, sizes: dict) -> dict:
    """For each named corpus size, examples per padded grid by largest remainder."""
    counts = Counter(grid_key(ex) for ex in corpus(spec, REFERENCE_EXAMPLES, 0))
    result = {}
    for name, n in sizes.items():
        exact = {key: n * c / REFERENCE_EXAMPLES for key, c in counts.items()}
        out = {key: int(v) for key, v in exact.items()}
        by_remainder = sorted(exact, key=lambda key: (out[key] - exact[key], key))
        for key in by_remainder[: n - sum(out.values())]:
            out[key] += 1
        result[name] = out
    return result


def stratified_corpus(spec: dict, quota: dict, seed: int) -> list:
    """Examples from one pool drawn with ``seed``, taken to meet each padded
    grid's quota; a grid the pool is short of is made up with the pool's
    first unused examples. The pool has a fixed size, so set-up costs the
    same for every seed."""
    need = dict(quota)
    n = sum(need.values())
    taken, spare = [], []
    for ex in corpus(spec, POOL_FACTOR * n, seed):
        key = grid_key(ex)
        if need.get(key, 0):
            need[key] -= 1
            taken.append(ex)
        else:
            spare.append(ex)
    return taken + spare[: n - len(taken)]


def source_digest() -> str:
    """Hash of the package sources and the fixture trainer: the fixture cache key."""
    h = hashlib.sha256()
    files = sorted((SRC / "editseg").glob("*.py")) + [Path(__file__).with_name("fixture.py")]
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fixture_dir(name: str) -> Path:
    definition = json.dumps(asdict(FIXTURES[name]), sort_keys=True).encode()
    key = hashlib.sha256(source_digest().encode() + definition).hexdigest()[:16]
    return BUILD / f"fixture-{name}-{key}"

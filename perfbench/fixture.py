"""Train and cache the fixture model a serve phase runs with.

An untrained model marks about half of all cells as edits, which would make
the generation timings meaningless, so serving runs with a model trained by
a deterministic ``editseg.train`` run. The model is cached per source tree
under ``.bench_build/perfbench``. Training runs in a child process, so it
stays out of the timed process's memory high-water mark.

    python3 perfbench/fixture.py paper
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time

from workloads import BATCH_SIZE, BUILD, FIXTURES, SRC, corpus, fixture_dir

MODEL_FILE = "model.run"
INFO_FILE = "fixture.json"


def ensure_fixture(name: str):
    """Path of the cached fixture checkpoint, training it first if needed."""
    target = fixture_dir(name)
    if not (target / INFO_FILE).exists():
        subprocess.run([sys.executable, __file__, name], check=True, stdout=sys.stderr)
    return target / MODEL_FILE, json.loads((target / INFO_FILE).read_text())


def build(name: str):
    sys.path.insert(0, str(SRC))
    from editseg import RunConfig, kernels, save_dataset, train

    fx = FIXTURES[name]
    target = fixture_dir(name)
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    examples = corpus(fx.spec, fx.train_examples + fx.dev_examples, fx.seed)
    save_dataset(examples[: fx.train_examples], tmp / "train.jsonl")
    save_dataset(examples[fx.train_examples :], tmp / "dev.jsonl")

    # The autodiff graph holds reference cycles, so without a collection per
    # step paper-dims training keeps several GB of dead graphs alive.
    # Collecting changes memory only, not the numbers.
    adam_step = kernels.adam_step

    def adam_step_then_collect(*args, **kwargs):
        adam_step(*args, **kwargs)
        gc.collect()

    kernels.adam_step = adam_step_then_collect
    config = RunConfig(
        train_path=str(tmp / "train.jsonl"),
        dev_path=str(tmp / "dev.jsonl"),
        checkpoint_path=str(tmp / MODEL_FILE),
        epochs=fx.epochs,
        batch_size=BATCH_SIZE,
        lr=fx.lr,
        seed=fx.seed,
        patience=fx.epochs,
        **fx.dims,
    )
    t0 = time.perf_counter()
    result = train(config, log=lambda msg: print(f"[fixture {name}] {msg}", file=sys.stderr))
    info = {
        "name": name,
        "dims": fx.dims,
        "train_examples": fx.train_examples,
        "epochs": fx.epochs,
        "best_dev_em": result.best_dev_em,
        "train_seconds": time.perf_counter() - t0,
    }
    (tmp / INFO_FILE).write_text(json.dumps(info, sort_keys=True))
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    for stale in BUILD.glob(f"fixture-{name}-*"):
        if stale != target:
            shutil.rmtree(stale, ignore_errors=True)


if __name__ == "__main__":
    build(sys.argv[1])

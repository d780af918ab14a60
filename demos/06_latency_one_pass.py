"""One-pass inference: latency does not grow with the rewrite's length.

Sequence-to-sequence rewriters decode word by word, so longer outputs cost
more time. Here the whole edit matrix comes out of a single forward pass
and edits apply in one sweep, so per-sentence latency is flat in the output
length. The benchmark uses fixed-size grids with varied edit counts, making
output length the only thing that moves.
"""

import json
import tempfile
from pathlib import Path

from editseg import (
    RunConfig,
    benchmark_spec,
    bench_latency,
    generate_synthetic,
    load_model,
    save_dataset,
    train,
)

with tempfile.TemporaryDirectory(prefix="editseg-bench-") as tmp:
    workdir = Path(tmp)
    corpus = generate_synthetic(benchmark_spec(num_examples=120, seed=3))
    save_dataset(corpus[:100], workdir / "train.jsonl")
    save_dataset(corpus[100:], workdir / "dev.jsonl")

    config = RunConfig(
        train_path=str(workdir / "train.jsonl"),
        dev_path=str(workdir / "dev.jsonl"),
        checkpoint_path=str(workdir / "model.run"),
        embed_dim=16,
        hidden_dim=16,
        base_channels=4,
        epochs=3,
        batch_size=16,
        seed=1,
    )
    print("training a small model (3 quick epochs; quality is not the point here)...")
    train(config, log=print)

    rw = load_model(config.checkpoint_path)

bench_examples = generate_synthetic(benchmark_spec(num_examples=300, seed=21))
lengths = sorted({len(ex.gold_rewrite) for ex in bench_examples})
print(f"\nbenchmark corpus: fixed 8-word utterances, rewrite lengths {lengths}")

report = bench_latency(rw, bench_examples)
print(json.dumps(report, indent=2))
print(
    f"\nmodel invocations per sentence: {report['invocations']} "
    f"(a decoder would need one step per output word)"
)
print(
    f"correlation of per-sentence time with output length: "
    f"{report['corr_time_vs_output_len']:+.3f} (flat = one-pass)"
)

"""The editseg benchmark: batch-1 and batched rewriting, and training.

    python3 perfbench/run.py --workload serve-paper --seed 1 --seconds 20 --trace 0

Every workload runs in one process as a closed loop with one client:
set-up (repeated, median reported), a batch-1 pass (``encode_example``,
``RewriteModel.predict_encoded``, ``rewrite_from_matrix``), a batched pass
(``RewriteModel.feature_batch``, ``segmentation_layer``, then
``decode_matrix`` and ``rewrite_from_matrix`` per example) and training
(``editseg.train`` from a fresh seeded model). With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it wraps the package's
functions in timing spans and reports per-layer metrics. End-to-end times
are calibrated to the host's uncontended speed (``calibrate.py``). A line
``{"record": ...}`` with the machine, build and fixture facts precedes the
result, which is the last line of standard output. The exit code is 1 when a
correctness gate fails, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace

# One BLAS thread: on a small shared host a second thread adds no speed at
# batch 1 and makes the run-to-run spread wider. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from workloads import BATCH_SIZE, BUILD, FIXTURES, SRC, WORKLOADS, derived_seed, pad4, quotas, stratified_corpus  # noqa: E402

SETUP_REPEATS = 7  # before the rounds; each round sets up once more
MIN_ROUNDS = 2
TRAIN_CALLS = 2  # per round
TRACE_PAIRS = 3
WARMUP_EXAMPLES = 4
TRAIN_LR = 1e-3
CONV_BLOCKS = {"down1": "down1", "down2": "down2", "up1": "bottom", "up2": "up2"}


def no_span(name):
    return contextlib.nullcontext()


@dataclass
class Item:
    """One serving input, prepared in set-up for the batched pass."""

    example: object
    enc: object
    x: list
    c: object


@dataclass
class State:
    model: object
    vocab: object
    conn: object
    k: int
    items: list
    train_gold: list
    workdir: object


@dataclass
class Round:
    """One interleaved round of the untraced run; times are calibrated."""

    setup_s: float
    times: list
    outs: list
    nonnone: float
    batch_times: list
    batched_outs: list
    train_s: list
    loss_end: float
    slowdown: float


@dataclass
class Gates:
    attempted: int = 0
    failed: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def copied_only(out, ex, c) -> bool:
    """Copy restriction: every output token comes from the utterance or the context."""
    allowed = {t.text for t in ex.incomplete} | {t.text for t in c.tokens if not t.is_special()}
    return all(t.text in allowed and not t.is_special() for t in out)


# ---------------------------------------------------------------------------
# phases


def setup(E, w, seed, fixture_path, workdir, quota, span=no_span) -> State:
    with span("checkpoint.load"):
        model, vocab, conn, k, *_ = E.load_model(fixture_path)
    with span("data.generate"):
        serve = stratified_corpus(w.spec, quota["serve"], derived_seed(seed, "serve"))
        train_set = stratified_corpus(w.spec, quota["train"], derived_seed(seed, "train"))
        train_set += stratified_corpus(w.spec, quota["dev"], derived_seed(seed, "dev"))
    items = [
        Item(ex, E.encode_example(ex, vocab, conn, k), E.prepare_incomplete(list(ex.incomplete)),
             E.join_context(ex, conn, k))
        for ex in serve
    ]
    E.save_dataset(train_set[: w.train_examples], workdir / "train.jsonl")
    E.save_dataset(train_set[w.train_examples :], workdir / "dev.jsonl")
    train_gold = [(ex, E.model.encode_example(ex, vocab, with_gold=True)) for ex in train_set]
    return State(model, vocab, conn, k, items, train_gold, workdir)


def check_round_trips(E, st: State, gates: Gates):
    """Gold path: derived matrix, then generation, must give the gold rewrite."""
    pairs = [(it.example, E.build_gold_matrix(it.example, st.conn, st.k)[0], st.conn, st.k) for it in st.items]
    pairs += [(ex, enc.gold, E.EMPTY_CONNECTION_WORDS, 0) for ex, enc in st.train_gold]
    for ex, gold, conn, k in pairs:
        out, _ = E.rewrite_from_matrix(gold, E.prepare_incomplete(list(ex.incomplete)), E.join_context(ex, conn, k))
        gates.check("gold_round_trip", E.texts(out) == E.texts(ex.gold_rewrite))


def batch1_pass(E, st: State, gates: Gates, span=no_span, clock=None):
    """One closed-loop pass at batch 1: DialogueExample in, tokens out.

    Times are wall times, or calibrated ones when a ``Clock`` is given.
    """
    model, vocab, conn, k = st.model, st.vocab, st.conn, st.k
    times, outs, nonnone, cells = [], [], 0, 0
    for it in st.items:
        ex = it.example
        before = model.invocations
        t0 = time.perf_counter()
        with span("batch1.example"):
            with span("dialogue"):
                enc = E.encode_example(ex, vocab, conn, k)
                x = E.prepare_incomplete(list(ex.incomplete))
                c = E.join_context(ex, conn, k)
            matrix = model.predict_encoded(enc)
            out, _ = E.generation.rewrite_from_matrix(matrix, x, c)
        wall = time.perf_counter() - t0
        times.append(clock(wall) if clock else wall)
        gates.check("one_invocation", model.invocations - before == 1)
        gates.check("copy_restriction", copied_only(out, ex, c))
        outs.append(E.texts(out))
        nonnone += int(np.count_nonzero(matrix))
        cells += matrix.size
    return times, outs, nonnone / cells


def buckets(items) -> list[list[int]]:
    """Batches of similar padded grid size, as training forms them."""
    order = sorted(range(len(items)), key=lambda i: (pad4(items[i].enc.m), pad4(items[i].enc.nx), i))
    return [order[i : i + BATCH_SIZE] for i in range(0, len(order), BATCH_SIZE)]


def batched_pass(E, st: State, batches, gates: Gates, clock=None):
    """Batches in, tokens out; returns each batch's time and every rewrite."""
    outs, times = [None] * len(st.items), []
    for idx in batches:
        t0 = time.perf_counter()
        batch = [st.items[i] for i in idx]
        with E.no_grad():
            features, _ = st.model.feature_batch([it.enc for it in batch])
            logits = st.model.segmentation_layer(features, training=False)
        for pos, (i, it) in enumerate(zip(idx, batch)):
            matrix = E.model.decode_matrix(logits.data[pos], it.enc.m, it.enc.nx)
            outs[i], _ = E.generation.rewrite_from_matrix(matrix, it.x, it.c)
        wall = time.perf_counter() - t0
        times.append(clock(wall) if clock else wall)
    for it, out in zip(st.items, outs):
        gates.check("copy_restriction", copied_only(out, it.example, it.c))
    return times, [E.texts(out) for out in outs]


def train_once(E, w, seed, st: State, gates: Gates, clock=None, epochs=None):
    """One ``editseg.train`` call: fixed epochs, no early stop, fresh seeded model.

    With a ``Clock``, the host is also probed at every log line ``train``
    writes, once per epoch, and the probes' time is taken out of the call's.
    """
    config = E.RunConfig(
        train_path=str(st.workdir / "train.jsonl"),
        dev_path=str(st.workdir / "dev.jsonl"),
        checkpoint_path=str(st.workdir / "train.run"),
        epochs=epochs or w.epochs,
        batch_size=BATCH_SIZE,
        lr=TRAIN_LR,
        seed=derived_seed(seed, "model"),
        patience=w.epochs,
        **w.dims,
    )
    inner = []
    log = (lambda msg: inner.append(clock.probe())) if clock else None
    t0 = time.perf_counter()
    try:
        result = E.train(config, log=log)
        losses = [h.train_loss for h in result.history]
    except E.TrainingDiverged:
        losses = [float("nan")]
    wall = time.perf_counter() - t0
    gates.check("finite_loss", len(losses) == config.epochs and bool(np.all(np.isfinite(losses))))
    return (clock(wall, inner) if clock else wall), losses[-1]


# ---------------------------------------------------------------------------
# tracing


def instrument(E, tracer, blocks: dict):
    """Wrap each layer's public functions where the package calls them."""
    from editseg import autodiff, generation, kernels, model, training

    t = tracer
    M = model.RewriteModel
    t.wrap(M, "context_layer", "model.context_layer")
    t.wrap(M, "segmentation_layer", "model.segmentation_layer")
    t.wrap(M, "zero_grad", "training.zero_grad")
    t.wrap(M, "forward_loss", "training.forward")
    t.wrap(model, "encoding_layer", "model.encoding_layer")
    t.wrap(model, "decode_matrix", "model.decode")
    t.wrap(model, "build_gold_matrix", "supervision.build_gold_matrix")
    t.wrap(kernels, "lstm", "kernels.lstm")
    # Blocks are known for the served model; training builds its own.
    t.wrap(kernels, "conv_bn_relu", lambda a: "kernels.conv_bn_relu." + blocks.get(id(a[1]), "other"))

    def conv_flops(args, out):
        x, k = args[0].data, args[1].data
        co, ci = k.shape[:2]
        t.count("conv2d.flops", 2.0 * co * ci * 9 * x.size / ci)

    t.wrap(kernels, "conv2d", "kernels.conv2d", conv_flops)
    for name in ("maxpool2", "deconv2", "linear", "weighted_cross_entropy", "adam_step"):
        t.wrap(kernels, name, "kernels." + name)
    t.wrap(autodiff.Tensor, "backward", "autodiff.backward")

    def labelled(args, regions):
        t.count("cells", args[0].size)
        t.count("nonnone", np.count_nonzero(args[0]))
        t.count("rects", len(regions))

    def resolved(args, program):
        t.count("rects_dropped", len(args[0]) - len(program.substitutes) - len(program.inserts))

    t.wrap(generation, "two_pass_label", "generation.two_pass_label", labelled)
    t.wrap(generation, "min_cover_rect", "generation.min_cover_rect")
    t.wrap(generation, "resolve_conflicts", "generation.resolve_conflicts", resolved)
    t.wrap(generation, "apply_edits", "generation.apply_edits")
    t.wrap(training, "evaluate_model", "training.dev_eval")
    t.wrap(training, "save_model", "checkpoint.save")


BATCH1_SPANS = [
    "batch1.example", "dialogue", "model.context_layer", "model.encoding_layer",
    "model.segmentation_layer", "model.decode", "kernels.lstm", "kernels.conv2d",
    *("kernels.conv_bn_relu." + b for b in CONV_BLOCKS.values()),
    "kernels.maxpool2", "kernels.deconv2", "kernels.linear",
    "generation.two_pass_label", "generation.min_cover_rect", "generation.resolve_conflicts",
    "generation.apply_edits",
]
EXPECTED_SPANS = {
    "setup": ["checkpoint.load", "data.generate", "supervision.build_gold_matrix"],
    "batch1": BATCH1_SPANS,
    "batched": ["model.context_layer", "model.encoding_layer", "model.segmentation_layer", "model.decode"],
    "train": [
        "training.zero_grad", "training.forward", "autodiff.backward", "kernels.adam_step",
        "kernels.weighted_cross_entropy", "training.dev_eval", "checkpoint.save",
        "supervision.build_gold_matrix",
    ],
}


def correlations(times, outs, items) -> dict:
    lat = np.asarray(times)
    length = np.array([len(o) for o in outs], dtype=float)
    area = np.array([pad4(it.enc.m) * pad4(it.enc.nx) for it in items], dtype=float)

    def corr(a, b):
        return float(np.corrcoef(a, b)[0, 1]) if a.std() > 0 and b.std() > 0 else 0.0

    residual = lat - np.polyval(np.polyfit(area, lat, 1), area) if area.std() > 0 else lat
    return {
        "oneshot.corr_len": (corr(lat, length), "r"),
        "oneshot.corr_area": (corr(lat, area), "r"),
        "oneshot.corr_len_given_area": (corr(residual, length), "r"),
    }


def pad_shares(items, batches) -> tuple[float, float]:
    real = sum(it.enc.m * it.enc.nx for it in items)
    single = sum(pad4(it.enc.m) * pad4(it.enc.nx) for it in items)
    batched = sum(
        len(idx) * pad4(max(items[i].enc.m for i in idx)) * pad4(max(items[i].enc.nx for i in idx))
        for idx in batches
    )
    return 1 - real / single, 1 - real / batched


# ---------------------------------------------------------------------------
# runs


def run_untraced(E, w, seed, seconds, make_state, gates, record):
    from calibrate import Clock

    st = make_state()
    check_round_trips(E, st, gates)
    batches = buckets(st.items)
    warm = replace(st, items=st.items[:WARMUP_EXAMPLES])
    batch1_pass(E, warm, Gates())
    batched_pass(E, warm, [list(range(len(warm.items)))], Gates())
    gc.collect()

    # Each unit of work (a set-up, an example, a batch, a training call) is
    # timed between two probes of the host's speed (calibrate.py), and each
    # metric is the median of its calibrated repeats over the rounds.
    clock = Clock()

    def timed_setup():
        gc.collect()  # so that no set-up pays for collecting the one before
        t0 = time.perf_counter()
        make_state()
        return clock(time.perf_counter() - t0)

    setup_times = [timed_setup() for _ in range(SETUP_REPEATS)]
    rounds, peak, t0 = [], None, time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (time.perf_counter() - t0) * (len(rounds) + 1) / len(rounds) <= seconds:
        first_unit = len(clock.units)
        setup_s = timed_setup()
        gc.collect()
        times, outs, nonnone = batch1_pass(E, st, gates, clock=clock)
        batch_times, batched_outs = batched_pass(E, st, batches, gates, clock=clock)
        if peak is None:
            # Serving's high-water mark, read before anything trains; then
            # one short untimed training call warms the training path.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            train_once(E, w, seed, st, Gates(), epochs=1)
        gc.collect()
        train_s, losses = [], set()
        for _ in range(TRAIN_CALLS):
            call_s, loss_end = train_once(E, w, seed, st, gates, clock=clock)
            train_s.append(call_s)
            losses.add(loss_end)
            gc.collect()
        gates.check("deterministic", len(losses) == 1)
        slowdown = statistics.median(wall / cal for wall, cal in clock.units[first_unit:])
        rounds.append(Round(setup_s, times, outs, nonnone, batch_times, batched_outs, train_s, loss_end, slowdown))
    if w.peak_after_training:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = rounds[0]
    for r in rounds[1:]:
        gates.check("deterministic", r.outs == first.outs and r.loss_end == first.loss_end)
    setup_times += [r.setup_s for r in rounds]
    per_example = np.median([r.times for r in rounds], axis=0) * 1e3
    per_batch = np.median([r.batch_times for r in rounds], axis=0)
    train_s = statistics.median(call_s for r in rounds for call_s in r.train_s)
    agree = np.mean([a == b for a, b in zip(first.batched_outs, first.outs)])
    em = np.mean([o == E.texts(it.example.gold_rewrite) for o, it in zip(first.outs, st.items)])

    record.update(
        batch1_examples=len(st.items), batches=len(batches), setup_s=setup_times,
        rounds=[{"slowdown": r.slowdown, "batch1_p50_ms": 1e3 * float(np.median(r.times)),
                 "batched_s": sum(r.batch_times), "train_s": r.train_s} for r in rounds],
        probe_s=statistics.quantiles(clock.probes, n=4),
        fixture_predicted_nonnone_share=first.nonnone, fixture_exact_match=float(em), loss_end=first.loss_end,
    )
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_ms_p50": (float(np.percentile(per_example, 50)), "ms"),
        "latency_ms_p90": (float(np.percentile(per_example, 90)), "ms"),
        "batched_rewrites_per_s": (len(st.items) / float(per_batch.sum()), "1/s"),
        "exact_match": (float(em), "share"),
        "batch_agreement": (float(agree), "share"),
        "train_examples_per_s": (w.train_examples * w.epochs / train_s, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }


@contextlib.contextmanager
def tracing(E, tracer, blocks, phase):
    """Spans recorded into ``phase`` while the package's functions are wrapped."""
    tracer.phase = phase
    instrument(E, tracer, blocks)
    try:
        yield tracer.span
    finally:
        tracer.restore()


def run_traced(E, w, seed, make_state, gates, record):
    from spans import Tracer

    tracer, blocks = Tracer(), {}
    with tracing(E, tracer, blocks, "setup") as span:
        st = make_state(span=span)
    blocks.update({id(k): CONV_BLOCKS[name.split(".")[0]] for name, k in st.model.convs.items()})
    batches = buckets(st.items)
    n = len(st.items)
    batch1_pass(E, replace(st, items=st.items[:WARMUP_EXAMPLES]), Gates())

    # Untraced and traced passes alternate, and each example keeps its fastest
    # of each kind, so the overhead estimate does not catch a burst of
    # contention on one side only.
    plain, traced = [], []
    before = st.model.invocations
    for _ in range(TRACE_PAIRS):
        plain.append(batch1_pass(E, st, gates))
        with tracing(E, tracer, blocks, "batch1") as span:
            traced.append(batch1_pass(E, st, gates, span))
        for a, b in zip(plain[-1][1], traced[-1][1]):
            gates.check("traced_equals_untraced", a == b)
    invocations = (st.model.invocations - before) / (2 * TRACE_PAIRS * n)
    plain_times = np.min([p[0] for p in plain], axis=0)
    traced_times = np.min([t[0] for t in traced], axis=0)
    with tracing(E, tracer, blocks, "batched"):
        batched_pass(E, st, batches, gates)
    with tracing(E, tracer, blocks, "train"):
        _, loss_end = train_once(E, w, seed, st, gates)

    calls = {phase: tracer.calls(phase) for phase in EXPECTED_SPANS}
    missing = [f"{p}:{s}" for p, names in EXPECTED_SPANS.items() for s in names if not calls[p].get(s)]
    for _ in missing:
        gates.check("span_coverage", False)
    record["missing_spans"] = missing

    def per_example_ms(name):
        return 1e3 * tracer.total("batch1", name) / (n * TRACE_PAIRS)

    def mean_ms(phase, name):
        d = tracer.durations(phase, name)
        return 1e3 * statistics.fmean(d) if d else 0.0

    counters = tracer.counters
    pad1, padb = pad_shares(st.items, batches)
    metrics = {
        "dialogue.encode_ms": (per_example_ms("dialogue"), "ms"),
        "data.generate_s": (tracer.total("setup", "data.generate"), "s"),
        "checkpoint.load_s": (tracer.total("setup", "checkpoint.load"), "s"),
        "checkpoint.save_ms": (mean_ms("train", "checkpoint.save"), "ms"),
        "supervision.build_gold_matrix_ms": (mean_ms("setup", "supervision.build_gold_matrix"), "ms"),
        "model.context_layer_ms": (per_example_ms("model.context_layer"), "ms"),
        "model.encoding_layer_ms": (per_example_ms("model.encoding_layer"), "ms"),
        "model.encoding_layer_calls": (calls["batched"].get("model.encoding_layer", 0) / len(batches), "count"),
        "model.segmentation_layer_ms": (per_example_ms("model.segmentation_layer"), "ms"),
        "model.decode_ms": (per_example_ms("model.decode"), "ms"),
        "model.pad_cell_share.batch1": (pad1, "share"),
        "model.pad_cell_share.batched": (padb, "share"),
        "model.invocations_per_example": (invocations, "count"),
        "kernels.lstm_ms": (per_example_ms("kernels.lstm"), "ms"),
        **{
            f"kernels.conv_bn_relu_ms.{b}": (per_example_ms("kernels.conv_bn_relu." + b), "ms")
            for b in CONV_BLOCKS.values()
        },
        "kernels.conv2d_gflops_per_s": (
            counters[("batch1", "conv2d.flops")] / max(tracer.total("batch1", "kernels.conv2d"), 1e-12) / 1e9,
            "GFLOP/s",
        ),
        "kernels.maxpool2_ms": (per_example_ms("kernels.maxpool2"), "ms"),
        "kernels.deconv2_ms": (per_example_ms("kernels.deconv2"), "ms"),
        "kernels.linear_ms": (per_example_ms("kernels.linear"), "ms"),
        "kernels.weighted_cross_entropy_ms": (mean_ms("train", "kernels.weighted_cross_entropy"), "ms"),
        "kernels.adam_step_ms": (mean_ms("train", "kernels.adam_step"), "ms"),
        "autodiff.backward_ms": (mean_ms("train", "autodiff.backward"), "ms"),
        "generation.two_pass_label_ms": (per_example_ms("generation.two_pass_label"), "ms"),
        "generation.cells_scanned": (counters[("batch1", "cells")] / (n * TRACE_PAIRS), "count"),
        "generation.nonnone_share": (
            counters[("batch1", "nonnone")] / max(counters[("batch1", "cells")], 1), "share"
        ),
        "generation.min_cover_rect_ms": (per_example_ms("generation.min_cover_rect"), "ms"),
        "generation.resolve_conflicts_ms": (per_example_ms("generation.resolve_conflicts"), "ms"),
        "generation.rects": (counters[("batch1", "rects")] / (n * TRACE_PAIRS), "count"),
        "generation.rects_dropped": (counters[("batch1", "rects_dropped")] / (n * TRACE_PAIRS), "count"),
        "generation.apply_edits_ms": (per_example_ms("generation.apply_edits"), "ms"),
        "training.forward_ms": (mean_ms("train", "training.forward"), "ms"),
        "training.zero_grad_ms": (mean_ms("train", "training.zero_grad"), "ms"),
        "training.step_ms_p50": (
            1e3 * statistics.median(tracer.window_durations("train", "training.zero_grad", "kernels.adam_step") or [0.0]),
            "ms",
        ),
        "training.dev_eval_s": (mean_ms("train", "training.dev_eval") / 1e3, "s"),
        "training.loss_end": (loss_end, "loss"),
        "trace.overhead_share": (float(np.median(traced_times) / np.median(plain_times) - 1), "share"),
        "trace.span_coverage": (tracer.child_share("batch1", "batch1.example"), "share"),
        **correlations(plain_times, plain[0][1], st.items),
    }
    record.update(batch1_examples=n, batches=len(batches), spans=len(tracer.spans))
    return metrics


# ---------------------------------------------------------------------------
# machine and build record


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_record(w) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "dims": w.dims,
        "src_editseg_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "editseg").glob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "editseg" / "__init__.py").is_file():
        print(f"editseg sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    sys.path.insert(0, str(SRC))
    import editseg as E

    from fixture import ensure_fixture

    w = WORKLOADS[args.workload]
    # Every fixture is built on the first run in a checkout, so that no later
    # run pays for one.
    fixtures = {name: ensure_fixture(name) for name in FIXTURES}
    fixture_path, fixture_info = fixtures[w.fixture]
    workdir = BUILD / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    gates = Gates()
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **machine_record(w), "fixture": fixture_info}
    quota = quotas(w.spec, {"serve": w.serve_examples, "train": w.train_examples, "dev": w.dev_examples})
    make_state = functools.partial(setup, E, w, args.seed, fixture_path, workdir, quota)
    try:
        if args.trace:
            metrics = run_traced(E, w, args.seed, make_state, gates, record)
        else:
            metrics = run_untraced(E, w, args.seed, args.seconds, make_state, gates, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["failed_by_gate"] = gates.failed
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": gates.failures == 0,
        "attempted": gates.attempted,
        "failed": gates.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if gates.failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

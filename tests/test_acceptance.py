"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live. The
training-dependent criteria share one deterministic toy training run
(500 train / 100 dev synthetic examples, vocab 50, seed 7).
"""

import functools
import time

import numpy as np
import pytest

import _acceptance_registry
from _float64 import to_float64
from _grad_check import grad_check
from _weights import batch_norm, bilstm_weights, probe_loss

from editseg import kernels as K
from editseg.autodiff import Tensor
from editseg.data import SyntheticSpec, benchmark_spec, generate_synthetic, save_dataset
from editseg.dialogue import (
    DialogueExample,
    Tokenization,
    join_context,
    prepare_incomplete,
    texts,
    tokenize,
)
from editseg.generation import rewrite_from_matrix, two_pass_label
from editseg.metrics import bleu_n, evaluate_corpus, exact_match, rewriting_prf, rouge_l, rouge_n
from editseg.model import RewriteModel, Vocabulary
from editseg.supervision import Coverage, build_gold_matrix
from editseg.checkpoint import load_model
from editseg.training import RunConfig, bench_latency, train

ctok = functools.partial(tokenize, mode=Tokenization.PER_CHARACTER)


def channels_last(a):
    """(B, C, H, W) -> contiguous (B, H, W, C), the layout the spatial ops take."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def report(criterion: int, ok: bool, detail: str):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line, flush=True)  # live with -s; captured otherwise
    _acceptance_registry.lines.append(line)  # echoed in the terminal summary
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The shared toy training run (criterion 5); others reuse its artifacts."""
    tmp = tmp_path_factory.mktemp("acceptance")
    examples = generate_synthetic(SyntheticSpec(num_examples=600, seed=7))
    save_dataset(examples[:500], tmp / "train.jsonl")
    save_dataset(examples[500:], tmp / "dev.jsonl")
    config = RunConfig(
        train_path=str(tmp / "train.jsonl"),
        dev_path=str(tmp / "dev.jsonl"),
        checkpoint_path=str(tmp / "model.run"),
        embed_dim=32,
        hidden_dim=32,
        base_channels=8,
        lr=1e-3,
        epochs=50,
        batch_size=16,
        seed=7,
        target_dev_em=0.80,
        target_dev_cell_acc=0.95,
    )
    t0 = time.perf_counter()
    result = train(config)
    seconds = time.perf_counter() - t0
    return tmp, config, result, seconds


def test_criterion_1_gold_path_round_trip_on_worked_example():
    t0 = time.perf_counter()
    example = DialogueExample.create(
        [ctok("北京今天天气如何"), ctok("北京今天是阴天")],
        ctok("为什么总是这样"),
        ctok("北京为什么总是阴天"),
    )
    matrix, coverage = build_gold_matrix(example)
    out, _ = rewrite_from_matrix(
        matrix, prepare_incomplete(list(example.incomplete)), join_context(example)
    )
    produced = "".join(texts(out))
    elapsed = time.perf_counter() - t0
    ok = produced == "北京为什么总是阴天" and coverage is Coverage.FULL and elapsed < 1.0
    report(1, ok, f"gold-path rewrite '{produced}' in {elapsed * 1000:.0f} ms")


def test_criterion_2_synthetic_round_trip_coverage():
    t0 = time.perf_counter()
    examples = generate_synthetic(SyntheticSpec(num_examples=1000, seed=0))
    exact = 0
    full = 0
    for ex in examples:
        matrix, coverage = build_gold_matrix(ex)
        full += coverage is Coverage.FULL
        out, _ = rewrite_from_matrix(
            matrix, prepare_incomplete(list(ex.incomplete)), join_context(ex)
        )
        exact += texts(out) == texts(ex.gold_rewrite)
    elapsed = time.perf_counter() - t0
    ok = exact == 1000 and full == 1000 and elapsed < 30.0
    report(2, ok, f"{exact}/1000 exact gold-path rewrites, {full}/1000 full coverage, {elapsed:.1f}s")


def test_criterion_3_kernel_gradients_over_ten_seeds():
    t0 = time.perf_counter()
    worst = 0.0

    def check(value):
        nonlocal worst
        worst = max(worst, value)

    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)

        fwd, bwd = bilstm_weights(rng, 4, 5)
        probe = rng.normal(size=(3, 10))[None]
        table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        ids = rng.integers(0, 5, size=(1, 3))  # may repeat
        check(grad_check(lambda: probe_loss(K.lstm(table, ids, fwd, bwd, [3]), probe), [table]))

        # Distinct ids: the table's rows are the inputs of the three steps.
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        steps = np.arange(3)[None]
        check(grad_check(lambda: probe_loss(K.lstm(x, steps, fwd, bwd, [3]), probe), [x, *fwd, *bwd]))

        xc = Tensor(channels_last(rng.normal(size=(1, 2, 6, 6))), requires_grad=True)
        kc = Tensor(rng.normal(size=(4, 2, 3, 3)) * 0.3, requires_grad=True)
        bn = batch_norm(4)
        probe_c = channels_last(rng.normal(size=(1, 4, 6, 6)))
        check(
            grad_check(
                lambda: probe_loss(K.conv_bn_relu(xc, kc, *bn, training=True), probe_c),
                [xc, kc, *bn[:2]],
            )
        )

        xp = Tensor(channels_last(rng.normal(size=(1, 1, 4, 4))), requires_grad=True)
        probe_p = channels_last(rng.normal(size=(1, 1, 2, 2)))
        check(grad_check(lambda: probe_loss(K.maxpool2(xp), probe_p), [xp]))

        xd = Tensor(channels_last(rng.normal(size=(1, 2, 3, 3))), requires_grad=True)
        kd = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        sd = Tensor(rng.normal(size=(1, 5, 6, 2)), requires_grad=True)  # cropped to an odd skip grid
        probe_d = rng.normal(size=(1, 5, 6, 5))
        check(grad_check(lambda: probe_loss(K.deconv2(xd, kd, sd), probe_d), [xd, kd, sd]))

        xl = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        wl = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        bl = Tensor(rng.normal(size=2), requires_grad=True)
        probe_l = rng.normal(size=(3, 2))
        check(grad_check(lambda: probe_loss(K.linear(xl, wl, bl), probe_l), [xl, wl, bl]))

        logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        targets = rng.integers(0, 3, size=6)
        mask = rng.random(6) > 0.2
        if not mask.any():
            mask[0] = True
        check(
            grad_check(
                lambda: K.weighted_cross_entropy(logits, targets, [1.0, 5.0, 5.0], mask=mask),
                [logits],
            )
        )

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 120.0
    report(3, ok, f"max rel-err {worst:.2e} across 6 kernels (7 checks) x 10 seeds, {elapsed:.1f}s")


def test_criterion_3b_full_model_gradient_spot_check():
    # Part of criterion 3: >= 20 random parameter coordinates at toy dims.
    from editseg.model import EncodedExample
    from editseg.supervision import EditType

    rng = np.random.default_rng(9)
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    from editseg.model import ModelConfig

    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, hidden_dim=3, base_channels=2)
    model = to_float64(RewriteModel(cfg, seed=7))  # finite differences need float64
    gold = np.zeros((4, 4), dtype=np.int8)
    gold[1:3, 1] = EditType.SUBSTITUTE
    gold[0, 2] = EditType.INSERT
    ex = EncodedExample(ids=rng.integers(3, vocab.size, size=8), m=4, nx=4, gold=gold)
    params = model.parameters()

    def f():
        features, masks = model.feature_batch([ex])
        logits = model.segmentation_layer(features, training=False)
        targets = np.zeros((1, 4, 4), dtype=np.int64)
        targets[0] = gold
        return K.weighted_cross_entropy(logits, targets, cfg.class_weights, mask=masks)

    for p in params.values():
        p.zero_grad()
    f().backward()
    analytic = {id(p): (None if p.grad is None else p.grad.copy()) for p in params.values()}

    def central(p, i, h):
        flat = p.data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        fp = f().item()
        flat[i] = orig - h
        fm = f().item()
        flat[i] = orig
        return (fp - fm) / (2 * h)

    names = sorted(params)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 20 and attempts < 60:
        attempts += 1
        p = params[names[int(rng.integers(len(names)))]]
        i = int(rng.integers(p.data.size))
        num = central(p, i, 1e-4)
        fine = central(p, i, 1e-5)
        if abs(num - fine) / max(abs(num), abs(fine), 1e-6) > 5e-4:
            continue  # FD itself unstable: a ReLU/pool kink sits inside ±h
        ana_arr = analytic[id(p)]
        ana = 0.0 if ana_arr is None else ana_arr.reshape(-1)[i]
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-6))
        checked += 1
    ok = checked >= 20 and worst < 1e-3
    report(3, ok, f"full-model spot check: {checked} coordinates, max rel-err {worst:.2e}")


def test_criterion_4_ccl_matches_flood_fill():
    def flood_fill(matrix):
        rows, cols = matrix.shape
        seen = np.zeros_like(matrix, dtype=bool)
        regions = set()
        for r in range(rows):
            for c in range(cols):
                if matrix[r, c] == 0 or seen[r, c]:
                    continue
                val = matrix[r, c]
                stack = [(r, c)]
                seen[r, c] = True
                cells = []
                while stack:
                    cr, cc = stack.pop()
                    cells.append((cr, cc))
                    for nr, nc in ((cr - 1, cc), (cr + 1, cc), (cr, cc - 1), (cr, cc + 1)):
                        if (
                            0 <= nr < rows
                            and 0 <= nc < cols
                            and not seen[nr, nc]
                            and matrix[nr, nc] == val
                        ):
                            seen[nr, nc] = True
                            stack.append((nr, nc))
                regions.add((int(val), frozenset(cells)))
        return regions

    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    mismatches = 0
    for _ in range(1000):
        m = rng.integers(0, 3, size=(12, 10)).astype(np.int8)
        ours = {(int(r.edit_type), r.cells) for r in two_pass_label(m)}
        if ours != flood_fill(m):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    report(4, ok, f"{mismatches} mismatches on 1000 random 12x10 matrices, {elapsed:.1f}s")


def test_criterion_5_toy_training_convergence(trained):
    _, config, result, seconds = trained
    last = result.history[-1]
    ok = (
        last.dev_cell_acc >= 0.95
        and last.dev_em >= 0.80
        and len(result.history) <= 50
        and seconds < 600.0
    )
    report(
        5,
        ok,
        f"dev cell-acc {last.dev_cell_acc:.4f}, dev EM {last.dev_em:.2f} "
        f"after {len(result.history)} epochs ({seconds:.0f}s)",
    )


def test_criterion_6_metric_fixtures():
    checks = []
    checks.append(abs(bleu_n([["a", "b", "c", "d"]], [["a", "b", "x", "d"]], 2) - 0.5) < 1e-6)
    checks.append(abs(rouge_n([["a", "b"]], [["a", "c"]], 1) - 0.5) < 1e-6)
    checks.append(abs(rouge_l([["a", "x", "b"]], [["a", "b"]]) - 0.8) < 1e-6)
    checks.append(exact_match([["a"], ["b"]], [["a"], ["c"]]) == 0.5)
    prf = rewriting_prf(
        [["why", "is", "beijing", "always", "this"]],
        [["why", "is", "beijing", "always", "cloudy"]],
        [["beijing"]],
        [["why", "is", "always", "this"]],
        1,
    )
    checks.append(all(abs(v - 1.0) < 1e-6 for v in prf))
    identical = [["a", "b", "c", "d"], ["e", "f", "g", "h", "i"]]
    rep = evaluate_corpus(identical, identical, [["a"]] * 2, [["b"]] * 2)
    checks.append(all(abs(v - 1.0) < 1e-6 for v in rep.bleu.values()))
    checks.append(all(abs(v - 1.0) < 1e-6 for v in rep.rouge_n_scores.values()))
    checks.append(abs(rep.rouge_l_score - 1.0) < 1e-6 and rep.em == 1.0)
    ok = all(checks)
    report(6, ok, f"{sum(checks)}/{len(checks)} hand-computed fixtures matched at 1e-6")


def test_criterion_7_one_pass_inference(trained):
    tmp, config, _, _ = trained
    examples = generate_synthetic(benchmark_spec(num_examples=300, seed=21))
    bench = bench_latency(load_model(config.checkpoint_path), examples)
    corr = bench["corr_time_vs_output_len"]
    ok = bench["invocations"] == 1 and abs(corr) < 0.3
    report(
        7,
        ok,
        f"invocations/example = {bench['invocations']}, "
        f"corr(time, output length) = {corr:+.3f}, mean {bench['mean_ms']:.1f} ms",
    )


def test_criterion_8_copy_restriction(trained):
    tmp, config, _, _ = trained
    trained_rw = load_model(config.checkpoint_path)
    untrained_rw = trained_rw._replace(model=RewriteModel(trained_rw.model.config, seed=321))
    examples = generate_synthetic(SyntheticSpec(num_examples=1000, seed=31))
    violations = 0
    outs = untrained_rw.rewrite(examples[:700]) + trained_rw.rewrite(examples[700:])
    for ex, (out, _) in zip(examples, outs):
        c = join_context(ex, trained_rw.conn, trained_rw.k)
        allowed = {t.text for t in ex.incomplete}
        allowed.update(t.text for t in c.tokens if not t.is_special())
        if not {t.text for t in out} <= allowed:
            violations += 1
    ok = violations == 0
    report(8, ok, f"{violations} copy-restriction violations over 1000 rewrites")


def test_criterion_9_end_to_end_determinism(trained, tmp_path):
    tmp, _, _, _ = trained
    runs = []
    for name in ("det_a", "det_b"):
        config = RunConfig(
            train_path=str(tmp / "train.jsonl"),
            dev_path=str(tmp / "dev.jsonl"),
            checkpoint_path=str(tmp_path / f"{name}.run"),
            embed_dim=16,
            hidden_dim=12,
            base_channels=4,
            epochs=2,
            batch_size=16,
            seed=99,
        )
        train(config)
        rw = load_model(config.checkpoint_path)
        rewrites = [texts(out) for out, _ in rw.rewrite(generate_synthetic(SyntheticSpec(num_examples=30, seed=8)))]
        runs.append(
            (
                (tmp_path / f"{name}.run").read_bytes(),
                (tmp_path / f"{name}.run.last").read_bytes(),
                rewrites,
            )
        )
    same_best = runs[0][0] == runs[1][0]
    same_last = runs[0][1] == runs[1][1]
    same_rewrites = runs[0][2] == runs[1][2]
    ok = same_best and same_last and same_rewrites
    report(
        9,
        ok,
        f"bitwise-identical checkpoints: best={same_best}, last={same_last}; "
        f"identical rewrites: {same_rewrites}",
    )

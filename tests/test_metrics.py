"""Metric fixtures: hand-computed expected values frozen as literals."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from editseg.metrics import (
    bleu_n,
    evaluate_corpus,
    exact_match,
    lcs_prf,
    rewriting_prf,
    rouge_l,
    rouge_n,
)

corpus_strategy = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=0, max_size=6),
    min_size=1,
    max_size=5,
)


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identity_is_one():
    corpus = [["a", "b", "c"], ["d", "e"]]
    for n in (1, 2):
        assert bleu_n(corpus, corpus, n) == pytest.approx(1.0)


def test_bleu_disjoint_is_zero():
    assert bleu_n([["a", "b"]], [["c", "d"]], 1) == 0.0


def test_bleu_hand_computed_bigram_case():
    # p1 = 3/4, p2 = 1/3, BP = 1 -> sqrt(3/4 * 1/3) = 0.5
    assert bleu_n([["a", "b", "c", "d"]], [["a", "b", "x", "d"]], 2) == pytest.approx(0.5)


def test_bleu_brevity_penalty():
    # Shorter prediction: BP = exp(1 - 3/2), p1 = 1.
    got = bleu_n([["a", "b"]], [["a", "b", "c"]], 1)
    assert got == pytest.approx(math.exp(1 - 3 / 2))


def test_bleu_empty_corpus_fails():
    with pytest.raises(ValueError):
        bleu_n([], [], 1)


# ---------------------------------------------------------------------------
# ROUGE


def test_rouge_n_identity_and_disjoint():
    assert rouge_n([["a", "b"]], [["a", "b"]], 1) == pytest.approx(1.0)
    assert rouge_n([["a", "b"]], [["c", "d"]], 1) == 0.0


def test_rouge_n_hand_computed():
    # P = 1/2, R = 1/2, F1 = 1/2
    assert rouge_n([["a", "b"]], [["a", "c"]], 1) == pytest.approx(0.5)


def test_rouge_n_short_reference_contributes_zero():
    got = rouge_n([["a", "b"], ["a", "b"]], [["a"], ["a", "b"]], 2)
    assert got == pytest.approx(0.5)  # first example 0, second 1


def test_rouge_l_identity_disjoint_and_hand_case():
    assert rouge_l([["a", "b"]], [["a", "b"]]) == pytest.approx(1.0)
    assert rouge_l([["a", "b"]], [["c", "d"]]) == 0.0
    # LCS = 2: P = 2/3, R = 1, F1 = 0.8
    assert rouge_l([["a", "x", "b"]], [["a", "b"]]) == pytest.approx(0.8)


def test_rouge_l_duality_swaps_p_and_r():
    pred, ref = ["a", "x", "b"], ["a", "b", "c", "x"]
    p1, r1, _ = lcs_prf(pred, ref)
    p2, r2, _ = lcs_prf(ref, pred)
    assert p1 == pytest.approx(r2)
    assert r1 == pytest.approx(p2)


# ---------------------------------------------------------------------------
# exact match


def test_exact_match_rates():
    assert exact_match([["a"]], [["a"]]) == 1.0
    assert exact_match([["a"], ["b"]], [["a"], ["c"]]) == 0.5
    assert exact_match([["a"]], [["b"]]) == 0.0


# ---------------------------------------------------------------------------
# rewriting P/R/F


def test_rewriting_identity_with_context_words():
    pred = ref = [["why", "is", "beijing", "cloudy"]]
    ctx = [["beijing", "is", "cloudy"]]
    inc = [["why", "is", "this"]]
    p, r, f = rewriting_prf(pred, ref, ctx, inc, 1)
    assert (p, r, f) == (1.0, 1.0, 1.0)


def test_rewriting_pred_without_context_words():
    pred = [["why", "is", "this"]]
    ref = [["why", "is", "beijing"]]
    ctx = [["beijing"]]
    inc = [["why", "is", "this"]]
    p, r, f = rewriting_prf(pred, ref, ctx, inc, 1)
    assert p == 0.0 and r == 0.0 and f == 0.0


def test_rewriting_hand_computed_unigram_case():
    # context-only = {beijing}; restricted grams on both sides = {beijing}
    pred = [["why", "is", "beijing", "always", "this"]]
    ref = [["why", "is", "beijing", "always", "cloudy"]]
    ctx = [["beijing"]]
    inc = [["why", "is", "always", "this"]]
    p, r, f = rewriting_prf(pred, ref, ctx, inc, 1)
    assert (p, r, f) == (1.0, 1.0, 1.0)


def test_rewriting_counts_every_qualifying_gram():
    # context-only = {beijing, cloudy}: ref has both, pred only beijing.
    pred = [["why", "is", "beijing", "always", "this"]]
    ref = [["why", "is", "beijing", "always", "cloudy"]]
    ctx = [["beijing", "is", "cloudy", "today"]]
    inc = [["why", "is", "always", "this"]]
    p, r, f = rewriting_prf(pred, ref, ctx, inc, 1)
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(0.5)
    assert f == pytest.approx(2 / 3)


def test_rewriting_exclude_incomplete_flag():
    pred = [["is"]]
    ref = [["is"]]
    ctx = [["is", "beijing"]]
    inc = [["is"]]
    # "is" occurs in the incomplete utterance, so nothing qualifies.
    assert rewriting_prf(pred, ref, ctx, inc, 1) == (0.0, 0.0, 0.0)


def test_rewriting_skips_examples_with_both_sides_empty():
    pred = [["x"], ["beijing"]]
    ref = [["x"], ["beijing"]]
    ctx = [["beijing"], ["beijing"]]
    inc = [["x"], ["x"]]
    p, r, f = rewriting_prf(pred, ref, ctx, inc, 1)
    assert (p, r, f) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(corpus_strategy, corpus_strategy)
def test_all_metrics_bounded(preds, refs):
    k = min(len(preds), len(refs))
    preds, refs = preds[:k], refs[:k]
    if k == 0:
        return
    for n in (1, 2, 3):
        assert 0.0 <= bleu_n(preds, refs, n) <= 1.0
        assert 0.0 <= rouge_n(preds, refs, n) <= 1.0
    assert 0.0 <= rouge_l(preds, refs) <= 1.0
    assert 0.0 <= exact_match(preds, refs) <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=4, max_size=8),
        min_size=1,
        max_size=5,
    )
)
def test_identity_corpus_scores_one_everywhere(corpus):
    # Sequences of length >= 4 so every n-gram order is populated.
    report = evaluate_corpus(corpus, corpus)
    assert report.em == 1.0
    assert report.rouge_l_score == pytest.approx(1.0)
    for v in report.bleu.values():
        assert v == pytest.approx(1.0)
    for v in report.rouge_n_scores.values():
        assert v == pytest.approx(1.0)


def test_permutation_invariance():
    preds = [["a", "b"], ["c"], ["a", "c", "d"]]
    refs = [["a", "x"], ["c"], ["a", "d", "d"]]
    ctx = [["a"], ["c"], ["d"]]
    inc = [["b"], ["q"], ["a"]]
    perm = [2, 0, 1]

    def take(xs):
        return [xs[i] for i in perm]

    for n in (1, 2):
        assert bleu_n(preds, refs, n) == pytest.approx(bleu_n(take(preds), take(refs), n))
        assert rewriting_prf(preds, refs, ctx, inc, n) == pytest.approx(
            rewriting_prf(take(preds), take(refs), take(ctx), take(inc), n)
        )
    assert exact_match(preds, refs) == exact_match(take(preds), take(refs))


def test_report_serializes():
    report = evaluate_corpus(
        [["a", "b", "c", "d"]],
        [["a", "b", "c", "d"]],
        contexts=[["a"]],
        incompletes=[["b"]],
    )
    d = report.to_dict()
    assert d["em"] == 1.0
    assert d["counts"] == 1
    assert set(d["bleu"]) == {"1", "2", "3", "4"}
    assert d["rewriting"]["1"]["f1"] == 1.0

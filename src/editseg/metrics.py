"""Automatic evaluation for rewriting: BLEU-n, ROUGE-n, ROUGE-L, exact match,
and rewriting precision/recall/F over context-word n-grams.

Inputs are token-text sequences (lists of strings), one reference per
prediction. BLEU is corpus-level without smoothing; ROUGE is macro-averaged
F1 per example; the rewriting scores are micro-averaged over the corpus and
restricted to n-grams containing at least one word that occurs in the
context but not in the incomplete utterance (the words hardest to copy).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .supervision import lcs_table


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_overlap(a: Counter, b: Counter) -> int:
    return sum(min(count, b[gram]) for gram, count in a.items())


def _check_corpus(preds, refs):
    if len(preds) != len(refs):
        raise ValueError("predictions and references must be parallel")
    if not preds:
        raise ValueError("empty corpus")


# ---------------------------------------------------------------------------
# BLEU


def bleu_n(preds: list[list[str]], refs: list[list[str]], n: int = 4) -> float:
    """Cumulative corpus BLEU: geometric mean of modified k-gram precisions
    for k = 1..n times the brevity penalty; zero if any precision is zero."""
    _check_corpus(preds, refs)
    pred_len = sum(len(p) for p in preds)
    ref_len = sum(len(r) for r in refs)
    if pred_len == 0:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        matched = total = 0
        for p, r in zip(preds, refs):
            pg = _ngrams(p, k)
            matched += _clipped_overlap(pg, _ngrams(r, k))
            total += sum(pg.values())
        if matched == 0 or total == 0:
            return 0.0
        log_sum += math.log(matched / total)
    bp = math.exp(min(0.0, 1.0 - ref_len / pred_len))
    return bp * math.exp(log_sum / n)


# ---------------------------------------------------------------------------
# ROUGE


def _prf(overlap: float, pred_total: float, ref_total: float) -> tuple[float, float, float]:
    p = overlap / pred_total if pred_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def rouge_n(preds: list[list[str]], refs: list[list[str]], n: int) -> float:
    """Macro-averaged per-example n-gram F1 with clipping.

    Examples whose reference is shorter than n contribute zero but still
    count toward the average.
    """
    _check_corpus(preds, refs)
    total = 0.0
    for p, r in zip(preds, refs):
        pg, rg = _ngrams(p, n), _ngrams(r, n)
        overlap = _clipped_overlap(pg, rg)
        total += _prf(overlap, sum(pg.values()), sum(rg.values()))[2]
    return total / len(preds)


def lcs_prf(pred: list[str], ref: list[str]) -> tuple[float, float, float]:
    """Single-pair ROUGE-L scores: LCS / |pred|, LCS / |ref|, and their F1,
    with the LCS length read from the alignment's ``lcs_table``."""
    return _prf(lcs_table(pred, ref)[0][0], len(pred), len(ref))


def rouge_l(preds: list[list[str]], refs: list[list[str]]) -> float:
    """Macro-averaged per-example F1 of ``lcs_prf``."""
    _check_corpus(preds, refs)
    total = 0.0
    for p, r in zip(preds, refs):
        total += lcs_prf(p, r)[2]
    return total / len(preds)


# ---------------------------------------------------------------------------
# exact match


def exact_match(preds: list[list[str]], refs: list[list[str]]) -> float:
    _check_corpus(preds, refs)
    return sum(p == r for p, r in zip(preds, refs)) / len(preds)


# ---------------------------------------------------------------------------
# rewriting precision / recall / F


def rewriting_prf(
    preds: list[list[str]],
    refs: list[list[str]],
    contexts: list[list[str]],
    incompletes: list[list[str]],
    n: int,
) -> tuple[float, float, float]:
    """Micro-averaged P/R/F over n-grams carrying at least one context word.

    A "context word" is one occurring in the joined context and not in the
    incomplete utterance. Examples where both restricted n-gram sets are
    empty are skipped.
    """
    _check_corpus(preds, refs)
    if not (len(preds) == len(contexts) == len(incompletes)):
        raise ValueError("contexts and incompletes must align with predictions")
    inter_total = pred_total = ref_total = 0
    for p, r, c, x in zip(preds, refs, contexts, incompletes):
        keywords = set(c) - set(x)

        def restrict(grams: Counter) -> Counter:
            return Counter(
                {g: cnt for g, cnt in grams.items() if any(tok in keywords for tok in g)}
            )

        pg = restrict(_ngrams(p, n))
        rg = restrict(_ngrams(r, n))
        if not pg and not rg:
            continue
        inter_total += _clipped_overlap(pg, rg)
        pred_total += sum(pg.values())
        ref_total += sum(rg.values())
    return _prf(inter_total, pred_total, ref_total)


# ---------------------------------------------------------------------------
# report


@dataclass
class EvalReport:
    """All automatic scores for one prediction corpus; values in [0, 1]."""

    bleu: dict[int, float] = field(default_factory=dict)
    rouge_n_scores: dict[int, float] = field(default_factory=dict)
    rouge_l_score: float = 0.0
    em: float = 0.0
    rewriting: dict[int, tuple[float, float, float]] = field(default_factory=dict)
    counts: int = 0

    def to_dict(self) -> dict:
        return {
            "bleu": {str(k): v for k, v in self.bleu.items()},
            "rouge_n": {str(k): v for k, v in self.rouge_n_scores.items()},
            "rouge_l": self.rouge_l_score,
            "em": self.em,
            "rewriting": {
                str(k): {"precision": p, "recall": r, "f1": f}
                for k, (p, r, f) in self.rewriting.items()
            },
            "counts": self.counts,
        }


def evaluate_corpus(
    preds: list[list[str]],
    refs: list[list[str]],
    contexts: list[list[str]] | None = None,
    incompletes: list[list[str]] | None = None,
) -> EvalReport:
    """Compute the full report; rewriting P/R/F only when contexts are given."""
    report = EvalReport(counts=len(preds))
    for n in (1, 2, 3, 4):
        report.bleu[n] = bleu_n(preds, refs, n)
    for n in (1, 2):
        report.rouge_n_scores[n] = rouge_n(preds, refs, n)
    report.rouge_l_score = rouge_l(preds, refs)
    report.em = exact_match(preds, refs)
    if contexts is not None and incompletes is not None:
        for n in (1, 2, 3):
            report.rewriting[n] = rewriting_prf(preds, refs, contexts, incompletes, n)
    return report

"""Distant supervision: derive word-level edit matrices from rewrite pairs.

Datasets only contain the rewritten utterance, not edit labels. The recipe:
align ``x`` (incomplete) with ``x*`` (rewrite) by longest common subsequence,
mark unmatched runs as Del (in x) and Add (in x*), pair an Add with the Del
sitting between the same two alignment anchors as a Substitute, treat the
remaining Adds as Inserts before their following anchor, then locate each
added span inside the joined context to obtain matrix rows. The result is
noisy but cheap, and for edits whose spans exist contiguously in the context
it reproduces the rewrite exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from .dialogue import (
    ConnectionWordList,
    DialogueExample,
    EMPTY_CONNECTION_WORDS,
    JoinedContext,
    Token,
    TokenKind,
    join_context,
    texts,
)


class EditType(IntEnum):
    NONE = 0
    SUBSTITUTE = 1
    INSERT = 2


class Coverage(IntEnum):
    FULL = 0
    PARTIAL = 1


def new_edit_matrix(rows: int, cols: int) -> np.ndarray:
    """All-None M x (N+1) grid of EditType values."""
    return np.zeros((rows, cols), dtype=np.int8)


# ---------------------------------------------------------------------------
# LCS alignment


def lcs_table(a: list, b: list) -> list[list[int]]:
    """Suffix-LCS table: ``d[i][j]`` is the LCS length of ``a[i:]`` and
    ``b[j:]``, items compared with ``==``; ``d[0][0]`` is the LCS length."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        ai, row, below = a[i], d[i], d[i + 1]
        for j in range(m - 1, -1, -1):
            row[j] = below[j + 1] + 1 if ai == b[j] else max(below[j], row[j + 1])
    return d


def lcs_align(a: list, b: list) -> list[tuple[int, int]]:
    """Maximum-length increasing matching of equal items (``==``) between a
    and b; ``build_gold_matrix`` passes token texts.

    Deterministic: among all maximum matchings, returns the one whose pair
    sequence is lexicographically smallest (earliest a-index, then earliest
    b-index). Walks forward over ``lcs_table``, taking a diagonal match
    whenever doing so still completes a maximum matching.
    """
    d = lcs_table(a, b)
    n, m = len(a), len(b)
    out = []
    i = j = 0
    while i < n and j < m and d[i][j] > 0:
        r = d[i][j]
        # Match a[i] at the earliest b-position that still completes a
        # maximum matching; only skip a[i] when no such position exists.
        found = -1
        for jj in range(j, m):
            if a[i] == b[jj] and d[i + 1][jj + 1] + 1 == r:
                found = jj
                break
        if found < 0:
            i += 1
        else:
            out.append((i, found))
            i += 1
            j = found + 1
    return out


@dataclass(frozen=True)
class Span:
    """A maximal unmatched run, bracketed by its alignment anchors.

    ``gap`` is the ordinal of the preceding matched pair (-1 at the front);
    since runs are maximal, the following anchor is always ``gap + 1``. Two
    spans in x and x* are "under the same context" exactly when their gaps
    are equal.
    """

    start: int
    end: int
    gap: int


def mark_spans(
    x: list[Token], x_star: list[Token], matches: list[tuple[int, int]]
) -> tuple[list[Span], list[Span]]:
    """Return (del_spans in x, add_spans in x*) from an LCS alignment."""

    def runs(length: int, matched_positions: list[int]) -> list[Span]:
        spans = []
        prev_gap = -1
        cursor = 0
        for ordinal, pos in enumerate(matched_positions):
            if cursor < pos:
                spans.append(Span(cursor, pos, prev_gap))
            cursor = pos + 1
            prev_gap = ordinal
        if cursor < length:
            spans.append(Span(cursor, length, prev_gap))
        return spans

    del_spans = runs(len(x), [i for i, _ in matches])
    add_spans = runs(len(x_star), [j for _, j in matches])
    return del_spans, add_spans


@dataclass(frozen=True)
class SpanOp:
    """A resolved edit, before its context rows are known.

    Substitute: replace x columns [col_start, col_end) with ``tokens``.
    Insert: place ``tokens`` before column ``col_start`` (col_end unused;
    the [E] column is a legal target).
    """

    kind: EditType
    tokens: tuple[Token, ...]
    col_start: int
    col_end: int


def pair_spans(
    del_spans: list[Span],
    add_spans: list[Span],
    x_star: list[Token],
    matches: list[tuple[int, int]],
    x_len: int,
) -> list[SpanOp]:
    """Pair Add spans with Del counterparts (Substitute) or columns (Insert).

    Del spans without an Add in the same gap are pure deletions: the
    three-type edit vocabulary cannot express them, so they are dropped.
    """
    del_by_gap = {s.gap: s for s in del_spans}
    ops = []
    for add in add_spans:
        tokens = tuple(x_star[add.start : add.end])
        counterpart = del_by_gap.get(add.gap)
        if counterpart is not None:
            ops.append(SpanOp(EditType.SUBSTITUTE, tokens, counterpart.start, counterpart.end))
        else:
            next_ordinal = add.gap + 1
            col = matches[next_ordinal][0] if next_ordinal < len(matches) else x_len
            ops.append(SpanOp(EditType.INSERT, tokens, col, col + 1))
    return ops


# ---------------------------------------------------------------------------
# locating spans in the joined context


def locate_in_context(span_tokens, c: JoinedContext) -> Optional[tuple[int, int]]:
    """First contiguous occurrence of the span among the context tokens.

    Matches on text over word positions, connection words included; windows
    crossing a ``[S]`` separator never match. Absence is a value, not an error.
    """
    want = [t.text for t in span_tokens]
    n = len(want)
    if n == 0:
        return None
    ctoks = c.tokens
    for start in range(len(ctoks) - n + 1):
        window = ctoks[start : start + n]
        if any(t.kind is TokenKind.SEP_S for t in window):
            continue
        if [t.text for t in window] == want:
            return start, start + n
    return None


def _locate_greedy(span_tokens, c: JoinedContext) -> tuple[list[tuple[int, int, int, int]], int]:
    """Split a span into maximal contiguous locatable sub-runs, left to right.

    Returns ([(row_start, row_end, tok_start, tok_end)], dropped_token_count).
    """
    placed = []
    dropped = 0
    i = 0
    n = len(span_tokens)
    while i < n:
        best = None
        for j in range(n, i, -1):
            loc = locate_in_context(span_tokens[i:j], c)
            if loc is not None:
                best = (loc[0], loc[1], i, j)
                break
        if best is None:
            dropped += 1
            i += 1
        else:
            placed.append(best)
            i = best[3]
    return placed, dropped


def build_gold_matrix(
    example: DialogueExample,
    conn: ConnectionWordList = EMPTY_CONNECTION_WORDS,
    k: int = 0,
    c: Optional[JoinedContext] = None,
) -> tuple[np.ndarray, Coverage]:
    """Derive the (noisy) gold edit matrix for a training example.

    ``c`` is the example's context already joined with ``conn`` and ``k``,
    for a caller that has it; otherwise it is joined here.

    Coverage is Full when every edit span was found as one contiguous run in
    the context; splitting a span or dropping tokens degrades it to Partial
    (the example is still usable as best-effort supervision).
    """
    if example.gold_rewrite is None:
        raise ValueError("gold matrix derivation needs a gold rewrite")
    if c is None:
        c = join_context(example, conn, k)
    x = list(example.incomplete)
    # Columns are x plus the [E] sentinel (``prepare_incomplete``), which a
    # DialogueExample's words never are.
    matrix = new_edit_matrix(len(c), len(x) + 1)

    matches = lcs_align(texts(x), texts(example.gold_rewrite))
    del_spans, add_spans = mark_spans(x, list(example.gold_rewrite), matches)
    ops = pair_spans(del_spans, add_spans, list(example.gold_rewrite), matches, len(x))

    coverage = Coverage.FULL
    # Pure deletions never become ops (no Delete edit type exists), so the
    # matrix cannot reproduce the rewrite: that is partial coverage too.
    consumed_gaps = {s.gap for s in add_spans}
    if any(s.gap not in consumed_gaps for s in del_spans):
        coverage = Coverage.PARTIAL
    for op in ops:
        placed, dropped = _locate_greedy(op.tokens, c)
        if dropped or len(placed) != 1:
            coverage = Coverage.PARTIAL
        for row_start, row_end, _, _ in placed:
            if op.kind is EditType.SUBSTITUTE:
                matrix[row_start:row_end, op.col_start : op.col_end] = EditType.SUBSTITUTE
            else:
                matrix[row_start:row_end, op.col_start] = EditType.INSERT
    return matrix, coverage

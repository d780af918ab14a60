"""Distant supervision: derive word-level edit matrices from rewrite pairs.

Datasets only contain the rewritten utterance, not edit labels. The recipe:
align ``x`` (incomplete) with ``x*`` (rewrite) by longest common subsequence,
then read each gap between two alignment anchors: words added to x* there
substitute the x words dropped in the same gap, or, if it drops none, are
inserted before the following anchor (``edit_spans``). Each added span is
then located inside the joined context to obtain matrix rows. The result is
noisy but cheap, and for edits whose spans exist contiguously in the context
it reproduces the rewrite exactly.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional, Sequence

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
    and b; ``edit_spans`` passes token texts.

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


def edit_spans(
    x: Sequence[Token], x_star: Sequence[Token]
) -> tuple[list[tuple[EditType, tuple[Token, ...], int, int]], bool]:
    """Read the edits that turn ``x`` into ``x*`` off their LCS alignment.

    Each gap between two alignment anchors (the end of both utterances closes
    the last gap) that adds words of x* gives one ``(kind, tokens, col_start,
    col_end)``: a Substitute of x columns ``[col_start, col_end)`` if the gap
    also drops words of x, else an Insert before the next anchor's column
    (``col_end = col_start + 1``; the [E] column is a legal target). A gap
    that only drops words cannot be expressed by the three-type edit
    vocabulary and sets ``deletes_only``, the second value returned.
    """
    edits = []
    deletes_only = False
    i0 = j0 = 0
    for i, j in lcs_align(texts(x), texts(x_star)) + [(len(x), len(x_star))]:
        if j0 < j:
            tokens = tuple(x_star[j0:j])
            if i0 < i:
                edits.append((EditType.SUBSTITUTE, tokens, i0, i))
            else:
                edits.append((EditType.INSERT, tokens, i, i + 1))
        elif i0 < i:
            deletes_only = True
        i0, j0 = i + 1, j + 1
    return edits, deletes_only


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


def _locate_greedy(span_tokens, c: JoinedContext) -> tuple[list[tuple[int, int]], int]:
    """Split a span into maximal contiguous locatable sub-runs, left to right.

    Returns ([(row_start, row_end)], dropped_token_count).
    """
    placed = []
    dropped = 0
    i = 0
    n = len(span_tokens)
    while i < n:
        for j in range(n, i, -1):
            loc = locate_in_context(span_tokens[i:j], c)
            if loc is not None:
                placed.append(loc)
                i = j
                break
        else:
            dropped += 1
            i += 1
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
    # Columns are x plus the [E] sentinel (``prepare_incomplete``), which a
    # DialogueExample's words never are.
    matrix = new_edit_matrix(len(c), len(example.incomplete) + 1)
    edits, deletes_only = edit_spans(example.incomplete, example.gold_rewrite)
    # No Delete edit type exists, so a pure deletion leaves the matrix unable
    # to reproduce the rewrite: that is partial coverage too.
    coverage = Coverage.PARTIAL if deletes_only else Coverage.FULL
    for kind, tokens, col_start, col_end in edits:
        placed, dropped = _locate_greedy(tokens, c)
        if dropped or len(placed) != 1:
            coverage = Coverage.PARTIAL
        for row_start, row_end in placed:
            matrix[row_start:row_end, col_start:col_end] = kind
    return matrix, coverage

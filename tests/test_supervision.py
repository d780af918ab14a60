"""Distant-supervision label derivation, including the Chinese worked example."""

import functools

import numpy as np

from editseg.dialogue import (
    DialogueExample,
    Tokenization,
    join_context,
    prepare_incomplete,
    texts,
    tokenize,
    word_tokens,
)
from editseg.generation import rewrite_from_matrix
from editseg.supervision import (
    Coverage,
    EditType,
    build_gold_matrix,
    edit_spans,
    lcs_align,
    locate_in_context,
)

ctok = functools.partial(tokenize, mode=Tokenization.PER_CHARACTER)


def weather_example():
    """Two-turn weather dialogue: the pronoun and the dropped subject case."""
    return DialogueExample.create(
        [ctok("北京今天天气如何"), ctok("北京今天是阴天")],
        ctok("为什么总是这样"),
        ctok("北京为什么总是阴天"),
    )


# ---------------------------------------------------------------------------
# lcs_align


def test_lcs_identity():
    a = word_tokens(["a", "b", "c"])
    assert lcs_align(a, a) == [(0, 0), (1, 1), (2, 2)]


def test_lcs_disjoint():
    assert lcs_align(word_tokens(["a", "b"]), word_tokens(["c", "d"])) == []


def test_lcs_weather_pair():
    x = ctok("为什么总是这样")
    x_star = ctok("北京为什么总是阴天")
    assert lcs_align(x, x_star) == [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6)]


def test_lcs_prefers_smallest_indices():
    # Both (0,0) and (0,1) are maximum matchings; the earliest b-index wins.
    assert lcs_align(word_tokens(["a"]), word_tokens(["a", "a"])) == [(0, 0)]
    # Matching 'a' first (smaller a-index) beats matching 'b' first.
    assert lcs_align(word_tokens(["a", "b"]), word_tokens(["b", "a"])) == [(0, 1)]


def _lcs_len_oracle(a, b):
    """Independent recursive-memo LCS length."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def test_lcs_length_matches_recursive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = [str(v) for v in rng.integers(0, 4, size=rng.integers(0, 13))]
        b = [str(v) for v in rng.integers(0, 4, size=rng.integers(0, 13))]
        got = lcs_align(word_tokens(a), word_tokens(b))
        assert len(got) == _lcs_len_oracle(tuple(a), tuple(b))
        # sanity: strictly increasing matching of equal tokens
        for (i1, j1), (i2, j2) in zip(got, got[1:]):
            assert i1 < i2 and j1 < j2
        assert all(a[i] == b[j] for i, j in got)


# ---------------------------------------------------------------------------
# edit_spans


def test_edit_spans_weather_gaps():
    x = ctok("为什么总是这样")
    x_star = ctok("北京为什么总是阴天")
    edits, deletes_only = edit_spans(x, x_star)
    # 北京 fills the gap before the first anchor; 阴天 replaces 这样.
    assert [(e[2], e[3], texts(e[1])) for e in edits] == [(0, 1, ["北", "京"]), (5, 7, ["阴", "天"])]
    assert not deletes_only


def test_edit_spans_identity_and_pure_insertion():
    a = word_tokens(["a"])
    assert edit_spans(a, a) == ([], False)
    b = word_tokens(["a", "b"])
    edits, deletes_only = edit_spans(a, b)
    assert [(e[0], texts(e[1]), e[2], e[3]) for e in edits] == [(EditType.INSERT, ["b"], 1, 2)]
    assert not deletes_only


def test_edit_spans_weather():
    x = ctok("为什么总是这样")
    x_star = ctok("北京为什么总是阴天")
    by_kind = {kind: (tokens, start, end) for kind, tokens, start, end in edit_spans(x, x_star)[0]}
    tokens, start, end = by_kind[EditType.SUBSTITUTE]
    assert texts(tokens) == ["阴", "天"]
    assert (start, end) == (5, 7)
    tokens, start, end = by_kind[EditType.INSERT]
    assert texts(tokens) == ["北", "京"]
    assert start == 0


def test_edit_spans_insert_at_end_column():
    x = word_tokens(["a"])
    x_star = word_tokens(["a", "b"])
    edits, _ = edit_spans(x, x_star)
    assert len(edits) == 1
    kind, _, start, end = edits[0]
    assert kind is EditType.INSERT
    assert (start, end) == (1, 2)  # the [E] column


def test_pure_deletions_yield_no_edits():
    x = word_tokens(["a", "z", "b", "q", "c"])
    x_star = word_tokens(["a", "b", "c"])
    assert edit_spans(x, x_star) == ([], True)


def _apply_edit_spans(x, edits):
    """Replace each Substitute's columns, and put each Insert before its column."""
    out, col = [], 0
    for kind, tokens, start, end in edits:
        out += x[col:start] + list(tokens)
        col = end if kind is EditType.SUBSTITUTE else start
    return out + x[col:]


def test_edit_spans_rebuild_the_rewrite_unless_a_gap_only_deletes():
    rng = np.random.default_rng(23)
    rebuilt = 0
    for _ in range(2000):
        x = word_tokens([str(v) for v in rng.integers(0, 4, size=rng.integers(0, 10))])
        x_star = word_tokens([str(v) for v in rng.integers(0, 4, size=rng.integers(0, 10))])
        edits, deletes_only = edit_spans(x, x_star)
        if not deletes_only:
            assert _apply_edit_spans(x, edits) == x_star
            rebuilt += 1
    assert rebuilt > 500


# ---------------------------------------------------------------------------
# locate_in_context


def test_locate_weather_span():
    c = join_context(weather_example())
    loc = locate_in_context(ctok("阴天"), c)
    assert loc == (14, 16)


def test_locate_absent_span():
    c = join_context(weather_example())
    assert locate_in_context(word_tokens(["zz"]), c) is None


def test_locate_prefers_first_occurrence():
    e = DialogueExample.create(
        [word_tokens("p q a b".split()), word_tokens("a b r".split())],
        word_tokens(["x"]),
    )
    c = join_context(e)
    got = locate_in_context(word_tokens(["a", "b"]), c)
    # Exhaustive-scan oracle over all windows.
    want = None
    ctexts = [t.text for t in c.tokens]
    for s in range(len(ctexts) - 1):
        if ctexts[s : s + 2] == ["a", "b"] and "[S]" not in ctexts[s : s + 2]:
            want = (s, s + 2)
            break
    assert got == want == (2, 4)


def test_locate_never_crosses_separator():
    e = DialogueExample.create(
        [word_tokens(["a"]), word_tokens(["b"])],
        word_tokens(["x"]),
    )
    c = join_context(e)
    assert locate_in_context(word_tokens(["a", "b"]), c) is None


# ---------------------------------------------------------------------------
# build_gold_matrix


def test_gold_matrix_weather():
    matrix, coverage = build_gold_matrix(weather_example())
    assert coverage is Coverage.FULL
    assert matrix.shape == (16, 8)  # 8 + [S] + 7 rows, 7 + [E] cols
    expected = np.zeros((16, 8), dtype=np.int8)
    expected[14:16, 5:7] = EditType.SUBSTITUTE  # 阴天 rows x 这样 cols
    expected[0:2, 0] = EditType.INSERT  # 北京 rows x col 0
    assert np.array_equal(matrix, expected)


def test_gold_matrix_identity_rewrite_is_all_none():
    e = DialogueExample.create(
        [word_tokens(["a", "b"])], word_tokens(["c"]), word_tokens(["c"])
    )
    matrix, coverage = build_gold_matrix(e)
    assert coverage is Coverage.FULL
    assert not matrix.any()


def test_gold_matrix_unlocatable_word_is_partial():
    e = DialogueExample.create(
        [word_tokens(["a", "b"])],
        word_tokens(["c"]),
        word_tokens(["zz", "c"]),
    )
    matrix, coverage = build_gold_matrix(e)
    assert coverage is Coverage.PARTIAL
    assert not matrix.any()
    # Round-trip fails to reproduce the rewrite: the dropped span is lost.
    x_prepared = prepare_incomplete(list(e.incomplete))
    out, _ = rewrite_from_matrix(matrix, x_prepared, join_context(e))
    assert [t.text for t in out] == ["c"]


def test_gold_matrix_split_span_is_partial_but_fills_subruns():
    # "b d" never occurs contiguously; it splits into two locatable runs.
    e = DialogueExample.create(
        [word_tokens("a b c d".split())],
        word_tokens(["p"]),
        word_tokens("b d p".split()),
    )
    matrix, coverage = build_gold_matrix(e)
    assert coverage is Coverage.PARTIAL
    assert matrix[1, 0] == EditType.INSERT
    assert matrix[3, 0] == EditType.INSERT


def test_gold_regions_are_disjoint_rectangles():
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(100):
        ctx = [[vocab[i] for i in rng.integers(0, 12, size=rng.integers(2, 6))]
               for _ in range(rng.integers(1, 3))]
        x = [vocab[i] for i in rng.integers(0, 12, size=rng.integers(1, 5))]
        xs = [vocab[i] for i in rng.integers(0, 12, size=rng.integers(1, 7))]
        e = DialogueExample.create(
            [word_tokens(u) for u in ctx], word_tokens(x), word_tokens(xs)
        )
        matrix, _ = build_gold_matrix(e)
        from editseg.generation import min_cover_rect, two_pass_label

        for region in two_pass_label(matrix):
            rect = min_cover_rect(region)
            area = (rect.row_end - rect.row_start) * (rect.col_end - rect.col_start)
            assert area == len(region.cells), "gold region must be a full rectangle"


def test_connection_tail_is_searchable_and_copyable():
    # The rewrite needs "of", which never occurs in the dialogue; with a
    # connection list appended to c the span becomes locatable and the
    # gold path can copy it.
    from editseg.dialogue import ConnectionWordList

    e = DialogueExample.create(
        [word_tokens("that capital city".split())],
        word_tokens("the capital city".split()),
        word_tokens("the capital of city".split()),
    )
    bare_matrix, bare_cov = build_gold_matrix(e)
    assert bare_cov is Coverage.PARTIAL
    assert not bare_matrix.any()

    conn = ConnectionWordList(("of",))
    matrix, coverage = build_gold_matrix(e, conn, k=1)
    assert coverage is Coverage.FULL
    c = join_context(e, conn, 1)
    assert matrix[len(c) - 1, 2] == EditType.INSERT  # "of", the last row of c
    out, _ = rewrite_from_matrix(matrix, prepare_incomplete(list(e.incomplete)), c)
    assert texts(out) == "the capital of city".split()


def test_pure_deletion_examples_are_partial():
    # No Delete edit type exists: the matrix stays empty and the example is
    # flagged Partial because generation cannot reproduce the rewrite.
    e = DialogueExample.create(
        [word_tokens(["c"])],
        word_tokens(["a", "z", "b"]),
        word_tokens(["a", "b"]),
    )
    matrix, coverage = build_gold_matrix(e)
    assert coverage is Coverage.PARTIAL
    assert not matrix.any()

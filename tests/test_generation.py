"""Standardization and generation: CCL, rectangles, conflicts, edit application."""

import functools

import numpy as np
import pytest

from editseg.dialogue import (
    DialogueExample,
    Tokenization,
    join_context,
    prepare_incomplete,
    texts,
    tokenize,
    word_tokens,
)
from editseg.generation import (
    EditProgram,
    LabeledRegion,
    Rectangle,
    apply_edits,
    min_cover_rect,
    resolve_conflicts,
    rewrite_from_matrix,
    two_pass_label,
)
from editseg.supervision import EditType, build_gold_matrix, new_edit_matrix

ctok = functools.partial(tokenize, mode=Tokenization.PER_CHARACTER)


def flood_fill_oracle(matrix):
    """Independent BFS flood fill over 4-connected equal-label cells."""
    rows, cols = matrix.shape
    seen = np.zeros_like(matrix, dtype=bool)
    regions = set()
    for r in range(rows):
        for c in range(cols):
            if matrix[r, c] == 0 or seen[r, c]:
                continue
            val = matrix[r, c]
            queue = [(r, c)]
            seen[r, c] = True
            cells = []
            while queue:
                cr, cc = queue.pop()
                cells.append((cr, cc))
                for nr, nc in ((cr - 1, cc), (cr + 1, cc), (cr, cc - 1), (cr, cc + 1)):
                    if 0 <= nr < rows and 0 <= nc < cols and not seen[nr, nc] and matrix[nr, nc] == val:
                        seen[nr, nc] = True
                        queue.append((nr, nc))
            regions.add((int(val), frozenset(cells)))
    return regions


def as_region_set(regions):
    return {(int(r.edit_type), r.cells) for r in regions}


# ---------------------------------------------------------------------------
# two_pass_label


def test_all_none_matrix_has_no_regions():
    assert two_pass_label(new_edit_matrix(4, 5)) == []


def test_single_block_is_one_region():
    m = new_edit_matrix(5, 6)
    m[1:3, 2:5] = EditType.SUBSTITUTE
    regions = two_pass_label(m)
    assert len(regions) == 1
    assert len(regions[0].cells) == 6


def test_two_pass_matches_flood_fill_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m = rng.integers(0, 3, size=(12, 10)).astype(np.int8)
        assert as_region_set(two_pass_label(m)) == flood_fill_oracle(m)


def test_u_shape_forces_equivalence_merge():
    # Two provisional labels meet at the bottom of the U; union-find must merge.
    m = new_edit_matrix(3, 3)
    m[0, 0] = m[1, 0] = m[2, 0] = m[2, 1] = m[2, 2] = m[1, 2] = m[0, 2] = EditType.INSERT
    regions = two_pass_label(m)
    assert len(regions) == 1
    assert len(regions[0].cells) == 7


# ---------------------------------------------------------------------------
# min_cover_rect


def test_l_shape_bounding_box():
    region = LabeledRegion(EditType.SUBSTITUTE, frozenset({(0, 0), (1, 0), (1, 1)}))
    rect = min_cover_rect(region)
    assert (rect.row_start, rect.row_end, rect.col_start, rect.col_end) == (0, 2, 0, 2)
    assert rect.region_size == 3


def test_single_cell_rect():
    rect = min_cover_rect(LabeledRegion(EditType.INSERT, frozenset({(3, 4)})))
    assert (rect.row_start, rect.row_end, rect.col_start, rect.col_end) == (3, 4, 4, 5)


def test_rect_equals_min_max_scan_on_random_regions():
    rng = np.random.default_rng(7)
    for _ in range(200):
        cells = {(int(r), int(c)) for r, c in rng.integers(0, 9, size=(rng.integers(1, 12), 2))}
        rect = min_cover_rect(LabeledRegion(EditType.INSERT, frozenset(cells)))
        rows = sorted(r for r, _ in cells)
        cols = sorted(c for _, c in cells)
        assert (rect.row_start, rect.row_end) == (rows[0], rows[-1] + 1)
        assert (rect.col_start, rect.col_end) == (cols[0], cols[-1] + 1)


def test_rectangle_rejects_empty_ranges():
    with pytest.raises(ValueError):
        Rectangle(EditType.INSERT, 2, 2, 0, 1)
    with pytest.raises(ValueError):
        Rectangle(EditType.SUBSTITUTE, 0, 1, 3, 3)


# ---------------------------------------------------------------------------
# resolve_conflicts


def test_disjoint_rectangles_survive_sorted():
    r1 = Rectangle(EditType.SUBSTITUTE, 0, 1, 4, 6)
    r2 = Rectangle(EditType.SUBSTITUTE, 2, 3, 0, 2)
    program = resolve_conflicts([r1, r2])
    assert program.substitutes == ((2, 3, 0, 2), (0, 1, 4, 6))


def test_overlapping_substitutes_larger_region_wins():
    big = Rectangle(EditType.SUBSTITUTE, 0, 2, 1, 4, region_size=6)
    small = Rectangle(EditType.SUBSTITUTE, 5, 6, 3, 5, region_size=2)
    program = resolve_conflicts([small, big])
    assert program.substitutes == ((0, 2, 1, 4),)


def test_inserts_at_same_column_ordered_by_row_start():
    a = Rectangle(EditType.INSERT, 5, 7, 0, 1)
    b = Rectangle(EditType.INSERT, 1, 2, 0, 1)
    program = resolve_conflicts([a, b])
    assert program.inserts == ((1, 2, 0), (5, 7, 0))


def test_insert_strictly_inside_substitute_dropped():
    sub = Rectangle(EditType.SUBSTITUTE, 0, 1, 2, 5, region_size=9)
    inside = Rectangle(EditType.INSERT, 3, 4, 3, 4)
    at_edge = Rectangle(EditType.INSERT, 3, 4, 2, 3)
    program = resolve_conflicts([sub, inside, at_edge])
    assert program.inserts == ((3, 4, 2),)


def test_substitute_columns_always_disjoint_on_random_inputs():
    rng = np.random.default_rng(13)
    for _ in range(300):
        rects = []
        for _ in range(rng.integers(0, 7)):
            r0 = int(rng.integers(0, 6))
            c0 = int(rng.integers(0, 8))
            rects.append(
                Rectangle(
                    EditType(int(rng.integers(1, 3))),
                    r0,
                    r0 + int(rng.integers(1, 4)),
                    c0,
                    c0 + int(rng.integers(1, 4)),
                    region_size=int(rng.integers(1, 10)),
                )
            )
        program = resolve_conflicts(rects)
        spans = sorted((c0, c1) for _, _, c0, c1 in program.substitutes)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


# ---------------------------------------------------------------------------
# apply_edits


def weather_fixture():
    e = DialogueExample.create(
        [ctok("北京今天天气如何"), ctok("北京今天是阴天")],
        ctok("为什么总是这样"),
        ctok("北京为什么总是阴天"),
    )
    c = join_context(e)
    x_prepared = prepare_incomplete(list(e.incomplete))
    return e, c, x_prepared


def test_empty_program_is_identity_without_end_token():
    e, c, x_prepared = weather_fixture()
    out = apply_edits(x_prepared, c, EditProgram())
    assert texts(out) == texts(e.incomplete)


def test_weather_gold_program_reproduces_rewrite():
    e, c, x_prepared = weather_fixture()
    matrix, _ = build_gold_matrix(e)
    out, program = rewrite_from_matrix(matrix, x_prepared, c)
    assert "".join(texts(out)) == "北京为什么总是阴天"
    assert program.substitutes == ((14, 16, 5, 7),)
    assert program.inserts == ((0, 2, 0),)


def test_insert_before_end_column_appends():
    e = DialogueExample.create([word_tokens(["tail", "words"])], word_tokens(["x", "y"]))
    c = join_context(e)
    x_prepared = prepare_incomplete(list(e.incomplete))
    program = EditProgram(inserts=((0, 2, 2),))
    out = apply_edits(x_prepared, c, program)
    assert texts(out) == ["x", "y", "tail", "words"]


def test_emitted_spans_strip_separators():
    e = DialogueExample.create(
        [word_tokens(["a"]), word_tokens(["b"])], word_tokens(["x"])
    )
    c = join_context(e)  # a [S] b
    x_prepared = prepare_incomplete(list(e.incomplete))
    program = EditProgram(substitutes=((0, 3, 0, 1),))
    out = apply_edits(x_prepared, c, program)
    assert texts(out) == ["a", "b"]


def test_coreference_style_substitute_over_pronoun():
    # Pronoun column replaced by its antecedent span from the context.
    e = DialogueExample.create(
        [word_tokens("the red team won".split())],
        word_tokens("why did they win".split()),
    )
    c = join_context(e)
    x_prepared = prepare_incomplete(list(e.incomplete))
    m = new_edit_matrix(len(c), len(x_prepared))
    m[0:3, 2] = EditType.SUBSTITUTE  # rows of "the red team" x column of "they"
    out, _ = rewrite_from_matrix(m, x_prepared, c)
    assert texts(out) == "why did the red team win".split()


def test_output_never_contains_special_tokens():
    rng = np.random.default_rng(3)
    e = DialogueExample.create(
        [word_tokens(["a", "b"]), word_tokens(["c", "d", "e"])],
        word_tokens(["p", "q", "r"]),
    )
    c = join_context(e)
    x_prepared = prepare_incomplete(list(e.incomplete))
    for _ in range(300):
        m = rng.integers(0, 3, size=(len(c), len(x_prepared))).astype(np.int8)
        out, _ = rewrite_from_matrix(m, x_prepared, c)
        assert all(t.text not in ("[S]", "[E]") for t in out)
        allowed = {t.text for t in c.tokens if not t.is_special()} | {t.text for t in e.incomplete}
        assert {t.text for t in out} <= allowed

"""Turn a predicted edit matrix into a rewritten utterance.

Predicted matrices can be ragged, so generation standardizes them first:
two-pass connected-component labeling (provisional labels plus union-find
equivalence merging) finds the connected regions, each region is replaced by
its minimal covering rectangle, overlapping rectangles are resolved by a
deterministic policy, and the surviving edit program is applied to the
incomplete utterance in one left-to-right sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dialogue import END_TEXT, SEP_TEXT, JoinedContext, Token
from .supervision import EditType


@dataclass(frozen=True)
class LabeledRegion:
    """A connected set of equally-labeled cells (4-connectivity)."""

    edit_type: EditType
    cells: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Rectangle:
    """A standardized edit region: half-open row and column ranges.

    ``region_size`` keeps the originating region's cell count so conflict
    resolution can prefer the rectangle backed by more evidence.
    """

    edit_type: EditType
    row_start: int
    row_end: int
    col_start: int
    col_end: int
    region_size: int = 0

    def __post_init__(self):
        if self.row_start >= self.row_end or self.col_start >= self.col_end:
            raise ValueError("rectangle ranges must be nonempty")
        if self.region_size == 0:
            object.__setattr__(
                self, "region_size", (self.row_end - self.row_start) * (self.col_end - self.col_start)
            )


@dataclass(frozen=True)
class EditProgram:
    """Ordered, conflict-free operations ready to apply.

    ``substitutes``: (row_start, row_end, col_start, col_end), disjoint col
    ranges. ``inserts``: (row_start, row_end, col), already in emission order.
    """

    substitutes: tuple[tuple[int, int, int, int], ...] = ()
    inserts: tuple[tuple[int, int, int], ...] = ()


# ---------------------------------------------------------------------------
# two-pass connected-component labeling


def two_pass_label(matrix: np.ndarray) -> list[LabeledRegion]:
    """Hoshen-Kopelman style labeling of the non-None cells.

    First pass scans left-to-right, top-to-bottom: a cell adopts the smallest
    provisional label among its left/top neighbors of the same edit type and
    records the neighbors' labels as equivalent; otherwise it opens a new
    label. The second pass resolves provisional labels through the recorded
    equivalences and groups cells into regions. Both passes visit only the
    non-None cells, in row-major order, so the cost follows their count
    rather than the grid area.
    """
    cols = matrix.shape[1]
    flat = np.flatnonzero(matrix)  # row-major, None == 0
    value = dict(zip(flat.tolist(), matrix.ravel()[flat].tolist()))
    labels: dict[int, int] = {}  # flat index -> provisional label
    parent: list[int] = [0]  # union-find over provisional labels; 0 unused

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra

    for idx, val in value.items():
        neighbors = []
        if idx % cols and value.get(idx - 1) == val:
            neighbors.append(labels[idx - 1])
        if value.get(idx - cols) == val:
            neighbors.append(labels[idx - cols])
        if neighbors:
            smallest = min(neighbors)
            labels[idx] = smallest
            for other in neighbors:
                union(smallest, other)
        else:
            parent.append(len(parent))
            labels[idx] = len(parent) - 1

    groups: dict[int, list[int]] = {}
    for idx, label in labels.items():
        groups.setdefault(find(label), []).append(idx)
    return [
        LabeledRegion(EditType(value[members[0]]), frozenset(divmod(i, cols) for i in members))
        for _, members in sorted(groups.items())
    ]


def min_cover_rect(region: LabeledRegion) -> Rectangle:
    """Bounding box of a region, carrying its edit type and cell count."""
    rows = [r for r, _ in region.cells]
    cols = [c for _, c in region.cells]
    return Rectangle(
        region.edit_type,
        min(rows),
        max(rows) + 1,
        min(cols),
        max(cols) + 1,
        region_size=len(region.cells),
    )


# ---------------------------------------------------------------------------
# conflict resolution


def resolve_conflicts(rects: list[Rectangle]) -> EditProgram:
    """Deterministically reduce possibly-overlapping rectangles to a program.

    Substitutes with overlapping column ranges: the one backed by more region
    cells survives (ties: smaller row_start, then smaller col_start). Inserts
    collapse to their leftmost column; an Insert strictly inside a surviving
    Substitute's column range is dropped. Inserts at one column apply in
    row_start order.
    """
    subs = [r for r in rects if r.edit_type is EditType.SUBSTITUTE]
    ins = [r for r in rects if r.edit_type is EditType.INSERT]

    kept_subs: list[Rectangle] = []
    for r in sorted(subs, key=lambda r: (-r.region_size, r.row_start, r.col_start, r.row_end)):
        if all(r.col_end <= k.col_start or r.col_start >= k.col_end for k in kept_subs):
            kept_subs.append(r)
    kept_subs.sort(key=lambda r: r.col_start)

    kept_ins = []
    for r in ins:
        col = r.col_start
        if any(k.col_start < col < k.col_end for k in kept_subs):
            continue
        kept_ins.append((r.row_start, r.row_end, col))
    kept_ins.sort(key=lambda t: (t[2], t[0], t[1]))

    return EditProgram(
        substitutes=tuple((r.row_start, r.row_end, r.col_start, r.col_end) for r in kept_subs),
        inserts=tuple(kept_ins),
    )


# ---------------------------------------------------------------------------
# edit application


def apply_edits(x_prepared: list[Token], c: JoinedContext, program: EditProgram) -> list[Token]:
    """Apply a program in one sweep over the columns of ``x`` plus ``[E]``.

    At each column, pending inserts for that column emit their context spans
    first; a substitute starting there emits its span and skips the covered
    columns; otherwise the column's own token is kept. The ``[E]`` column
    only flushes trailing inserts. ``[S]`` separators inside emitted context
    spans are stripped.
    """
    sub_at = {s[2]: s for s in program.substitutes}
    inserts_at: dict[int, list[tuple[int, int, int]]] = {}
    for entry in program.inserts:
        inserts_at.setdefault(entry[2], []).append(entry)

    def emit_span(row_start: int, row_end: int) -> list[Token]:
        return [t for t in c.tokens[row_start:row_end] if t.text != SEP_TEXT]

    out: list[Token] = []
    n_cols = len(x_prepared)
    col = 0
    while col < n_cols:
        for row_start, row_end, _ in inserts_at.get(col, ()):
            out.extend(emit_span(row_start, row_end))
        sub = sub_at.get(col)
        if sub is not None:
            out.extend(emit_span(sub[0], sub[1]))
            col = sub[3]
            continue
        tok = x_prepared[col]
        if tok.text != END_TEXT:
            out.append(tok)
        col += 1
    return out


def matrix_to_program(matrix: np.ndarray) -> EditProgram:
    """Standardize a (possibly ragged) edit matrix into an edit program."""
    rects = [min_cover_rect(region) for region in two_pass_label(matrix)]
    return resolve_conflicts(rects)


def rewrite_from_matrix(
    matrix: np.ndarray, x_prepared: list[Token], c: JoinedContext
) -> tuple[list[Token], EditProgram]:
    """Full generation path from an edit matrix (predicted or gold)."""
    program = matrix_to_program(matrix)
    return apply_edits(x_prepared, c, program), program


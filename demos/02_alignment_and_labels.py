"""How labels come from nothing but rewrite pairs (distant supervision).

Datasets give (context, incomplete, rewrite) triples but no edit matrices.
The derivation: LCS-align incomplete vs rewrite, read each gap between two
alignment anchors as a Substitute (it adds and drops words) or an Insert
(it only adds words), and locate the added spans inside the context.
"""

from editseg import (
    DialogueExample,
    edit_spans,
    lcs_align,
    locate_in_context,
    join_context,
    texts,
    tokenize,
)
from editseg.supervision import EditType

x = tokenize("so when did they finish the bridge")
x_star = tokenize("so when did the red army finish the bridge in 1889")
print("x: ", " ".join(texts(x)))
print("x*:", " ".join(texts(x_star)))

matches = lcs_align(x, x_star)
print("\nLCS alignment (x index -> x* index):")
for i, j in matches:
    print(f"  {x[i].text!r}: {i} -> {j}")

edits, deletes_only = edit_spans(x, x_star)
print("\nedits read off the gaps between anchors:")
for kind, tokens, col_start, col_end in edits:
    if kind is EditType.SUBSTITUTE:
        print(f"  Substitute x[{col_start}:{col_end}] {texts(x[col_start:col_end])} <- {texts(tokens)}")
    else:
        print(f"  Insert {texts(tokens)} before column {col_start}")
print("a gap only deletes words:", deletes_only)

example = DialogueExample.create(
    context=[tokenize("the red army built that bridge in 1889")],
    incomplete=x,
    gold_rewrite=x_star,
)
c = join_context(example)
print("\ncontext rows:", " ".join(texts(c.tokens)))
for _, tokens, _, _ in edits:
    loc = locate_in_context(tokens, c)
    print(f"  span {texts(tokens)} found at rows {loc}")
print("\n('the red army' and 'in 1889' exist contiguously in the context, so")
print(" both edits are representable and the example has Full coverage.)")

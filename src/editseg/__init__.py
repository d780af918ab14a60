"""editseg: rewrite incomplete dialogue utterances via word-level edit matrices.

The pipeline: join the dialogue context into one row sequence, score every
(context word, utterance word) pair with learned relevance features, segment
that grid into None/Substitute/Insert cells with a small U-shaped network,
standardize the predicted regions into rectangles, and apply the resulting
edit program to the incomplete utterance. Training labels are derived from
rewrite pairs by LCS alignment (distant supervision).
"""

import types as _types

from .autodiff import Tensor, no_grad
from .checkpoint import load_model, save_model
from .data import (
    DatasetError,
    SyntheticSpec,
    benchmark_spec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .dialogue import (
    ConnectionWordList,
    DialogueExample,
    EMPTY_CONNECTION_WORDS,
    JoinedContext,
    Token,
    Tokenization,
    derive_connection_words,
    detokenize,
    join_context,
    prepare_incomplete,
    texts,
    tokenize,
)
from .generation import (
    EditProgram,
    LabeledRegion,
    Rectangle,
    apply_edits,
    matrix_to_program,
    min_cover_rect,
    resolve_conflicts,
    rewrite_from_matrix,
    two_pass_label,
)
from .metrics import (
    EvalReport,
    bleu_n,
    evaluate_corpus,
    exact_match,
    rewriting_prf,
    rouge_l,
    rouge_n,
)
from .model import (
    EncodedExample,
    ModelConfig,
    RewriteModel,
    Rewriter,
    Vocabulary,
    encode_example,
    encoding_layer,
)
from .supervision import (
    Coverage,
    EditType,
    build_gold_matrix,
    edit_spans,
    lcs_align,
    locate_in_context,
)
from .training import (
    RunConfig,
    TrainingDiverged,
    TrainResult,
    bench_latency,
    evaluate_model,
    train,
)

__version__ = "0.1.0"

# The public names are exactly those imported above; the submodules that the
# imports bind in this namespace are not among them.
__all__ = [
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _types.ModuleType))
]

"""The edit-matrix predictor: context layer, pair-feature encoding layer,
and U-shaped segmentation layer.

``encode_example`` builds an example's joined context (the M rows) and its
prepared incomplete utterance (the N + 1 columns) once; the encoded example
carries both to generation. They are encoded by one shared BiLSTM pass;
every (context word, utterance word) pair then gets a relevance vector
[h ⊙ u; cos(h, u); h W u], giving an M x N x D "image" that a small
UNet-style encoder/decoder segments into None / Substitute / Insert cells.
A batch's features are built at once by a single ``encoding_layer`` node,
for the real cells only: one row per (context word, utterance word) pair of
each example, which are the real pixels of the batch's grid, its largest
(M, N). The U-Net keeps every level as such rows, and the logits are
scattered to the zero-padded (B, M, N, 3) grid once, at the end. One
forward pass yields the whole edit matrix, so inference cost does not grow
with output length.

``array_table`` is the one place the model's arrays are listed, by
checkpoint name and shape. ``RewriteModel`` keeps them in one store under
those names, draws them from a seed or takes them from a checkpoint, and
every layer, ``parameters``, ``state`` and the checkpoint code read them
from there. ``Rewriter`` bundles a model with its vocabulary, connection
words and tokenization mode: everything a rewrite needs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from . import kernels as K
from .autodiff import Tensor
from .dialogue import (
    ConnectionWordList,
    DialogueExample,
    EMPTY_CONNECTION_WORDS,
    END_TEXT,
    JoinedContext,
    SEP_TEXT,
    Token,
    join_context,
    prepare_incomplete,
)
from .generation import EditProgram, rewrite_from_matrix
from .supervision import Coverage, build_gold_matrix

N_EDIT_TYPES = 3
PREDICT_BATCH = 16  # examples per forward pass of RewriteModel.predict


@dataclass
class ModelConfig:
    """The model's sizes and loss weights; the one check of each.

    ``vocab_size``, ``embed_dim``, ``hidden_dim`` and ``base_channels`` are
    integers above 0. ``class_weights`` are the None / Substitute / Insert
    weights of the cross-entropy: three finite positive numbers, kept as a
    tuple of floats. A bad value raises ``ValueError`` naming its field.
    """

    vocab_size: int
    embed_dim: int = 100
    hidden_dim: int = 200
    base_channels: int = 32
    class_weights: tuple[float, float, float] = (1.0, 5.0, 5.0)

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim", "base_channels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        cw = self.class_weights
        if not isinstance(cw, (list, tuple)) or len(cw) != 3 or not all(
            isinstance(w, numbers.Real) and not isinstance(w, bool) and 0 < w < math.inf for w in cw
        ):
            raise ValueError(f"class_weights must be a list of 3 positive finite numbers, got {cw!r}")
        self.class_weights = tuple(float(w) for w in cw)

    @property
    def feature_channels(self) -> int:
        """D = 2H (elementwise) + 1 (cosine) + 1 (bilinear)."""
        return 2 * self.hidden_dim + 2

    def to_dict(self) -> dict:
        return asdict(self) | {"class_weights": list(self.class_weights)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config ``d`` holds: a missing key takes its default, and a key
        that is no field (an old sidecar's ``batch_size``) is ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


class Vocabulary:
    """Deterministic token-to-id map; id 0 is the shared UNK slot."""

    UNK = 0

    def __init__(self, words: list[str]):
        self.words = list(words)
        self._ids = {SEP_TEXT: 1, END_TEXT: 2}
        for w in self.words:
            if w not in self._ids:
                self._ids[w] = len(self._ids) + 1
        self.size = len(self._ids) + 1  # plus UNK

    @staticmethod
    def from_examples(examples, conn: ConnectionWordList = EMPTY_CONNECTION_WORDS) -> "Vocabulary":
        seen = set()
        for ex in examples:
            for utt in ex.context_utterances:
                seen.update(t.text for t in utt)
            seen.update(t.text for t in ex.incomplete)
            if ex.gold_rewrite:
                seen.update(t.text for t in ex.gold_rewrite)
        seen.update(conn.words)
        return Vocabulary(sorted(seen))

    def id_of(self, token: Token) -> int:
        return self._ids.get(token.text, self.UNK)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.id_of(t) for t in tokens], dtype=np.int64)


@dataclass
class EncodedExample:
    """Per-example model input: id sequence for c ++ x_prepared plus dims.

    ``c`` (the joined context, M rows) and ``x`` (the prepared utterance,
    N + 1 columns) are what a predicted matrix is applied to; only model
    inputs built by hand, without tokens, leave them out.
    """

    ids: np.ndarray
    m: int  # joined-context length M
    nx: int  # prepared-incomplete length N + 1
    gold: Optional[np.ndarray] = None
    coverage: Optional[Coverage] = None
    c: Optional[JoinedContext] = None
    x: Optional[list[Token]] = None


def encode_example(
    example: DialogueExample,
    vocab: Vocabulary,
    conn: ConnectionWordList = EMPTY_CONNECTION_WORDS,
    k: int = 0,
    with_gold: bool = False,
) -> EncodedExample:
    c = join_context(example, conn, k)
    x_prepared = prepare_incomplete(list(example.incomplete))
    ids = np.concatenate([vocab.encode(c.tokens), vocab.encode(x_prepared)])
    gold = coverage = None
    if with_gold:
        gold, coverage = build_gold_matrix(example, c=c)
    return EncodedExample(ids, len(c), len(x_prepared), gold, coverage, c, x_prepared)


# ---------------------------------------------------------------------------
# layers


# Floor on a state's squared norm: far below any real BiLSTM state, so it
# only acts on a zero one. It is a normal float32 (the smallest is
# 1.2e-38), and so are its square root and the product of two.
_SQ_NORM_FLOOR = 1e-24


def real_cells(sizes, grid: tuple[int, int]) -> np.ndarray:
    """(B, M, N) flags of each example's m x nx real cells, top left on the grid."""
    mask = np.zeros((len(sizes), *grid), dtype=bool)
    for i, (m, nx) in enumerate(sizes):
        mask[i, :m, :nx] = True
    return mask


def encoding_layer(states: Tensor, sizes, grid: tuple[int, int], w_bilinear: Tensor) -> Tensor:
    """Pairwise relevance features of a batch's real cells, as one graph node.

    ``states`` is the (B, L, 2H) BiLSTM output over each example's
    c ++ x_prepared, and ``sizes`` holds each example's (m, nx): rows
    [0, m) are its context states u and rows [m, m + nx) its utterance
    states hx. Every real (i, j) pair gets the concatenation of the
    elementwise product, the cosine similarity and the learned bilinear
    form, 2H + 2 values, as one row of a (Σ m·nx, 2H + 2) array: each
    example's m x nx block in turn, row-major. Those are the real pixels of
    the (B, M, N) ``grid``, in the order its ``kernels.Sites`` lists them,
    and the node carries the sites; padding cells are never computed. The
    squared norms are clamped before the square root, so a zero state has
    cosine 0 and a finite gradient.

    The backward writes the gradients of u and hx into one zero (B, L, 2H)
    array by assignment: an example's two row ranges are disjoint, so no
    index repeats, and rows from m + nx on get exact zeros.
    """
    sd, w = states.data, w_bilinear.data
    B, L, width = sd.shape
    M, N = grid
    if len(sizes) != B or any(not (0 <= m <= M and 0 <= nx <= N and m + nx <= L) for m, nx in sizes):
        raise ValueError(f"sizes must be {B} pairs (m <= {M}, nx <= {N}, m + nx <= {L}), got {list(sizes)}")
    padded = any((m, nx) != (M, N) for m, nx in sizes)
    sites = K.Sites((B, M, N), real_cells(sizes, grid) if padded else None)
    hx = np.concatenate([sd[i, m : m + nx] for i, (m, nx) in enumerate(sizes)])  # (Σ nx, 2H)
    hw = hx @ w
    out = np.empty((sites.n, width + 2), dtype=sd.dtype)
    # Per example: its size, its m x nx block of rows, its columns of hx,
    # and the norms of its u and hx.
    parts, row, col = [], 0, 0
    for i, (m, nx) in enumerate(sizes):
        rows, cols, u = np.s_[row : row + m * nx], np.s_[col : col + nx], sd[i, :m]
        norm_u, norm_h = (np.sqrt(np.maximum((a * a).sum(axis=1), _SQ_NORM_FLOOR)) for a in (u, hx[cols]))
        blk = out[rows].reshape(m, nx, width + 2)
        elem = blk[..., :width]
        np.multiply(u[:, None, :], hx[None, cols, :], out=elem)
        np.divide(elem.sum(axis=2), norm_u[:, None] * norm_h[None, :], out=blk[..., width])
        np.matmul(u, hw[cols].T, out=blk[..., width + 1])
        parts.append((m, nx, rows, cols, norm_u, norm_h))
        row, col = row + m * nx, col + nx

    def backward(g):
        grads = [g[rows].reshape(m, nx, width + 2) for m, nx, rows, *_ in parts]
        ub = np.empty_like(hx)  # ub[n] = sum_m g_bil[m, n] u_m, for all examples' columns
        for i, (gb, (m, _, _, cols, _, _)) in enumerate(zip(grads, parts)):
            np.matmul(gb[..., width + 1].T, sd[i, :m], out=ub[cols])
        ubw = ub @ w.T
        ds = np.zeros_like(sd)
        for i, (gb, (m, nx, rows, cols, norm_u, norm_h)) in enumerate(zip(grads, parts)):
            g_elem, g_cos, g_bil = gb[..., :width], gb[..., width], gb[..., width + 1]
            u, h = sd[i, :m], hx[cols]
            g_dot = g_cos / (norm_u[:, None] * norm_h[None, :])
            g_cos_cos = g_cos * out[rows, width].reshape(m, nx)
            du = np.einsum("mnd,nd->md", g_elem, h)
            du += g_dot @ h + g_bil @ hw[cols]
            du -= u * (g_cos_cos.sum(axis=1) / norm_u**2)[:, None]
            dh = np.einsum("mnd,md->nd", g_elem, u)
            dh += g_dot.T @ u + ubw[cols]
            dh -= h * (g_cos_cos.sum(axis=0) / norm_h**2)[:, None]
            ds[i, :m] = du
            ds[i, m : m + nx] = dh
        ad._accumulate(states, ds)
        ad._accumulate(w_bilinear, hx.T @ ub)

    node = ad._node(out, (states, w_bilinear), backward)
    node.sites = sites
    return node


def decode_matrix(logits: np.ndarray, m: int, nx: int) -> np.ndarray:
    """Per-cell argmax over the unpadded region; ties break toward None."""
    return logits[:m, :nx].argmax(axis=2).astype(np.int8)


# The U-Net's conv blocks, (name, output channels, input channels) in units
# of the base width C0; ``None`` stands for the feature channels D. Channel
# path: D -> C0 -> C0 | pool -> 2C0 -> 2C0 | pool -> 4C0 -> 4C0 -> deconv 2C0
# (+2C0 skip) -> 2C0 -> 2C0 -> deconv C0 (+C0 skip) -> head 2C0 -> 3.
CONV_BLOCKS = (
    ("down1.conv1", 1, None),
    ("down1.conv2", 1, 1),
    ("down2.conv1", 2, 1),
    ("down2.conv2", 2, 2),
    ("up1.conv1", 4, 2),
    ("up1.conv2", 4, 4),
    ("up2.conv1", 2, 4),
    ("up2.conv2", 2, 2),
)
BN_STATS = ("running_mean", "running_var")


def array_table(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every array of the model by checkpoint name, with its shape, in draw order.

    This is the one place the model's arrays are listed: 36 parameters and
    16 batch-norm running statistics (``*.bn.running_mean``,
    ``*.bn.running_var``), which are state but not parameters. The
    initializer of each array follows from its name (``initial_value``).
    """
    e, h, c0 = config.embed_dim, config.hidden_dim, config.base_channels
    table = {"embedding": (config.vocab_size, e)}
    for direction in ("fwd", "bwd"):
        table[f"lstm.{direction}.w_ih"] = (e, 4 * h)
        table[f"lstm.{direction}.w_hh"] = (h, 4 * h)
        table[f"lstm.{direction}.b"] = (4 * h,)
    table["bilinear.w"] = (2 * h, 2 * h)
    for name, c_out, c_in in CONV_BLOCKS:
        table[f"{name}.k"] = (c_out * c0, config.feature_channels if c_in is None else c_in * c0, 3, 3)
        for part in ("gamma", "beta", *BN_STATS):
            table[f"{name}.bn.{part}"] = (c_out * c0,)
    table["up1.deconv.k"] = (4 * c0, 2 * c0, 2, 2)
    table["up2.deconv.k"] = (2 * c0, c0, 2, 2)
    table["head.w"] = (2 * c0, N_EDIT_TYPES)
    table["head.b"] = (N_EDIT_TYPES,)
    return table


def is_parameter(name: str) -> bool:
    return not name.endswith(BN_STATS)


def initial_value(rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The float64 initial value of the array ``name``; only some draw from ``rng``.

    The embedding is N(0, 0.1); biases, batch-norm shifts and running means
    are zeros; batch-norm scales and running variances are ones. Every other
    array is a weight, Xavier-uniform with fan-in + fan-out
    (s0 + s1) · s2 · s3 · ... for shape (s0, s1, s2, ...).
    """
    if name == "embedding":
        return rng.normal(0.0, 0.1, size=shape)
    if name.endswith((".b", "beta", "running_mean")):
        return np.zeros(shape)
    if name.endswith(("gamma", "running_var")):
        return np.ones(shape)
    limit = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
    return rng.uniform(-limit, limit, size=shape)


class RewriteModel:
    """The model's arrays plus the forward passes for training and prediction.

    ``tensors`` holds every array that ``array_table`` names, as a float32
    ``Tensor`` under its checkpoint name; parameters require gradients and
    the batch-norm running statistics do not. Everything computed from them
    is float32 too: activations, gradients and Adam moments.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self._adopt(config, {name: initial_value(rng, name, shape) for name, shape in array_table(config).items()})

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "RewriteModel":
        """The model holding ``arrays``, cast to float32; nothing is drawn.

        ``arrays`` must have exactly the names and shapes of
        ``array_table(config)``, which the caller checks.
        """
        model = cls.__new__(cls)
        model._adopt(config, arrays)
        return model

    def _adopt(self, config: ModelConfig, arrays: dict[str, np.ndarray]):
        """Hold float32 copies of ``arrays`` in the layouts their GEMMs read:
        each conv and deconv kernel in ``kernels.kernel_storage``, and both
        directions' ``w_hh`` as the two halves of one (2, H, 4H) buffer,
        which ``kernels.lstm`` multiplies by in one call per step."""
        self.config = config
        # Examples run through logit_rows, the pass that makes the logits
        # (training batches too): one per predicted example.
        self.invocations = 0
        self.tensors = {}
        w_hh = ("lstm.fwd.w_hh", "lstm.bwd.w_hh")
        halves = dict(zip(w_hh, np.stack([arrays[name] for name in w_hh], dtype=np.float32)))
        for name in array_table(config):
            if name.endswith(".k"):
                # kernel_storage makes the copy; a cast copy before it, made
                # and freed per kernel, made load_model ~3x slower.
                data = K.kernel_storage(arrays[name].astype(np.float32, copy=False))
            elif name in halves:
                data = halves[name]
            else:
                data = arrays[name].astype(np.float32)
            self.tensors[name] = Tensor(data, requires_grad=is_parameter(name))

    # -- parameter bookkeeping ------------------------------------------------

    @property
    def convs(self) -> dict[str, Tensor]:
        """Each conv block's kernel by block name (``down1.conv1``, ...)."""
        return {name: self.tensors[f"{name}.k"] for name, _, _ in CONV_BLOCKS}

    def parameters(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.tensors.items() if t.requires_grad}

    def state(self) -> dict[str, np.ndarray]:
        """Every parameter's array and batch-norm statistic, by checkpoint name."""
        return {name: t.data for name, t in self.tensors.items()}

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()

    # -- layers ----------------------------------------------------------------

    def context_layer(self, batch: list[EncodedExample]):
        """One joint BiLSTM scan, both directions at once, over c ++ x_prepared.

        A single ``kernels.lstm`` call reads each step's embedding straight
        from the table, by the batch's right-padded ids. Returns the
        (B, Lmax, 2H) encoder output; slice rows [0, M) for the context
        states and [M, M + N) for the utterance states.
        """
        lengths = [ex.m + ex.nx for ex in batch]
        ids = np.zeros((len(batch), max(lengths)), dtype=np.int64)
        for i, ex in enumerate(batch):
            ids[i, : len(ex.ids)] = ex.ids
        t = self.tensors
        fwd, bwd = ([t[f"lstm.{d}.{w}"] for w in ("w_ih", "w_hh", "b")] for d in ("fwd", "bwd"))
        return K.lstm(t["embedding"], ids, fwd, bwd, lengths)

    def feature_batch(self, batch: list[EncodedExample]):
        """Encode a batch into its pair-feature rows and real-cell mask.

        One ``encoding_layer`` call gathers each example's context and
        utterance rows from the BiLSTM output and builds the features of
        its m x nx real cells, one row each, on the batch's own grid, its
        largest (m, nx). The rows carry their ``kernels.Sites``; the
        (B, H, W) mask marks the same cells.
        """
        states = self.context_layer(batch)
        sizes = [(ex.m, ex.nx) for ex in batch]
        grid = (max(m for m, _ in sizes), max(nx for _, nx in sizes))
        return encoding_layer(states, sizes, grid, self.tensors["bilinear.w"]), real_cells(sizes, grid)

    def segmentation_layer(self, features: Tensor, training: bool) -> Tensor:
        """The U-Net over the feature rows -> per-cell logits on the grid,
        (B, H, W, 3), zero on padding: ``logit_rows`` scattered once."""
        return K.to_grid(self.logit_rows(features, training))

    def logit_rows(self, features: Tensor, training: bool) -> Tensor:
        """U-shaped encoder/decoder over the feature rows -> (n × 3) logit rows.

        Two down-sampling blocks (conv, conv, pool; channels double; an odd
        side pools to a partial last window), two up-sampling blocks (conv,
        conv, deconv; channels halve), each deconv output cropped to the
        grid of the matching pre-pool features and joined to them on the
        channel axis in the same ``deconv2`` node, then a per-cell affine
        head to the three edit types.

        Every level keeps one row per real cell, listed by its
        ``kernels.Sites``: the features carry the first level's, and each
        pool gives the next (``Sites.pooled``, built once per level). So
        padding is never computed, and a real cell gets the function it
        gets on its example's own grid: a neighbour off the mask reads like
        the conv's zero ring, a pool window's maximum is over its real
        cells, each deconv output cell reads its own window, and batch norm
        takes its statistics over the real cells. Only float summation order
        differs. A dense (B, H, W, D) image is every pixel's rows.
        """
        self.invocations += features.sites.shape[0] if features.sites is not None else features.data.shape[0]
        t = self.tensors

        def block(x, name):
            gamma, beta, mean, var = (t[f"{name}.bn.{a}"] for a in ("gamma", "beta", *BN_STATS))
            # Positional, as the benchmark's wrappers forward the arguments
            # (tests/test_package.py makes its calls).
            return K.conv_bn_relu(x, t[f"{name}.k"], gamma, beta, mean.data, var.data, training)

        d1 = block(block(features, "down1.conv1"), "down1.conv2")
        d2 = block(block(K.maxpool2(d1), "down2.conv1"), "down2.conv2")
        bottom = block(block(K.maxpool2(d2), "up1.conv1"), "up1.conv2")
        u2 = block(block(K.deconv2(bottom, t["up1.deconv.k"], d2), "up2.conv1"), "up2.conv2")
        return K.linear(K.deconv2(u2, t["up2.deconv.k"], d1), t["head.w"], t["head.b"])

    # -- objectives -------------------------------------------------------------

    def forward_loss(self, batch: list[EncodedExample]) -> Tensor:
        """Weighted cross-entropy over the batch's real cells, on the logit
        rows: each example's gold matrix, row-major, is its rows' targets."""
        if any(ex.gold is None for ex in batch):
            raise ValueError("forward_loss needs gold matrices")
        features, _ = self.feature_batch(batch)
        logits = self.logit_rows(features, training=True)
        targets = np.concatenate([np.asarray(ex.gold).reshape(-1) for ex in batch])
        return K.weighted_cross_entropy(logits, targets, self.config.class_weights)

    def predict(self, batch: list[EncodedExample]) -> list[np.ndarray]:
        """Edit matrices in ``batch``'s order, one forward pass each: sorted by
        (m, nx), ``PREDICT_BATCH`` examples share a forward pass. Padding is
        never computed, so a matrix depends on the examples it runs with
        only up to float32 rounding: the logits re-round with the batch's
        composition, as BLAS picks its summation order by a product's row
        count."""
        order = sorted(range(len(batch)), key=lambda i: (batch[i].m, batch[i].nx))
        matrices = [None] * len(batch)
        for start in range(0, len(batch), PREDICT_BATCH):
            run = order[start : start + PREDICT_BATCH]
            with ad.no_grad():
                features, _ = self.feature_batch([batch[i] for i in run])
                logits = self.segmentation_layer(features, training=False)
            for pos, i in enumerate(run):
                matrices[i] = decode_matrix(logits.data[pos], batch[i].m, batch[i].nx)
        return matrices

    def predict_encoded(self, ex: EncodedExample) -> np.ndarray:
        """``predict`` for one example: a batch of one, so nothing is padded."""
        return self.predict([ex])[0]


class Rewriter(NamedTuple):
    """A trained model and what it was trained with: everything a rewrite needs."""

    model: RewriteModel
    vocab: Vocabulary
    conn: ConnectionWordList
    k: int
    tokenization: str

    def rewrite(self, examples) -> list[tuple[list, EditProgram]]:
        """Encode, predict in batches by grid (``RewriteModel.predict``), then
        standardize and apply: one (tokens, program) per example, in order.
        ``rewrite([ex])`` is batch 1."""
        encs = [encode_example(ex, self.vocab, self.conn, self.k) for ex in examples]
        return [rewrite_from_matrix(matrix, enc.x, enc.c) for matrix, enc in zip(self.model.predict(encs), encs)]

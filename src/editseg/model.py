"""The edit-matrix predictor: context layer, pair-feature encoding layer,
and U-shaped segmentation layer.

``encode_example`` builds an example's joined context (the M rows) and its
prepared incomplete utterance (the N + 1 columns) once; the encoded example
carries both to generation. They are encoded by one shared BiLSTM pass;
every (context word, utterance word) pair then gets a relevance vector
[h ⊙ u; cos(h, u); h W u], giving an M x N x D "image" that a small
UNet-style encoder/decoder segments into None / Substitute / Insert cells.
A batch's images are built at once, zero-padded to one grid, by a single
``encoding_layer`` node. One forward pass yields the whole edit matrix, so
inference cost does not grow with output length.

``array_table`` is the one place the model's arrays are listed, by
checkpoint name and shape. ``RewriteModel`` keeps them in one store under
those names, draws them from a seed or takes them from a checkpoint, and
every layer, ``parameters``, ``state`` and the checkpoint code read them
from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
from .supervision import Coverage, build_gold_matrix

N_EDIT_TYPES = 3


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int = 100
    hidden_dim: int = 200
    base_channels: int = 32
    class_weights: tuple[float, float, float] = (1.0, 5.0, 5.0)

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim", "base_channels"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        self.class_weights = tuple(float(w) for w in self.class_weights)
        if any(w <= 0 for w in self.class_weights):
            raise ValueError("class weights must be positive")

    @property
    def feature_channels(self) -> int:
        """D = 2H (elementwise) + 1 (cosine) + 1 (bilinear)."""
        return 2 * self.hidden_dim + 2

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "base_channels": self.base_channels,
            "class_weights": list(self.class_weights),
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            vocab_size=d["vocab_size"],
            embed_dim=d.get("embed_dim", 100),
            hidden_dim=d.get("hidden_dim", 200),
            base_channels=d.get("base_channels", 32),
            class_weights=tuple(d.get("class_weights", (1.0, 5.0, 5.0))),
        )


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


# Floor on a row's squared norm: far below any real BiLSTM state, so it only
# acts on the zero rows that pad a batch. It is a normal float32 (the
# smallest is 1.2e-38), and so are its square root and the product of two.
_SQ_NORM_FLOOR = 1e-24


def encoding_layer(u: Tensor, hx: Tensor, w_bilinear: Tensor) -> Tensor:
    """Pairwise relevance features for a padded batch, as one graph node.

    For every (m, n) the concatenation of the elementwise product, the cosine
    similarity, and the learned bilinear form: u (B, M, 2H) and hx (B, N, 2H)
    -> (B, M, N, 2H + 2), written into one array. Padding rows of ``u`` and
    ``hx`` are zero, and so are their cells. The squared norms are clamped
    before the square root, so a zero row has cosine 0 and a finite gradient.
    """
    ud, hd, w = u.data, hx.data, w_bilinear.data
    B, M, width = ud.shape
    N = hd.shape[1]
    if hd.shape != (B, N, width):
        raise ValueError(f"encodings must share batch and width: {ud.shape} vs {hd.shape}")
    out = np.empty((B, M, N, width + 2), dtype=ud.dtype)
    elem = out[..., :width]
    np.multiply(ud[:, :, None, :], hd[:, None, :, :], out=elem)
    norm_u = np.sqrt(np.maximum((ud * ud).sum(axis=2), _SQ_NORM_FLOOR))
    norm_h = np.sqrt(np.maximum((hd * hd).sum(axis=2), _SQ_NORM_FLOOR))
    denom = norm_u[:, :, None] * norm_h[:, None, :]
    cos = out[..., width]
    np.divide(elem.sum(axis=3), denom, out=cos)
    hw = hd @ w  # (B, N, 2H)
    np.matmul(ud, hw.transpose(0, 2, 1), out=out[..., width + 1])

    def factory(node):
        def backward():
            g = node.grad
            g_elem, g_cos, g_bil = g[..., :width], g[..., width], g[..., width + 1]
            g_dot = g_cos / denom
            g_cos_cos = g_cos * cos
            ub = g_bil.transpose(0, 2, 1) @ ud  # (B, N, 2H): sum_m g_bil[m, n] u_m
            if u.requires_grad:
                du = np.einsum("bmnd,bnd->bmd", g_elem, hd)
                du += g_dot @ hd + g_bil @ hw
                du -= ud * (g_cos_cos.sum(axis=2) / norm_u**2)[..., None]
                ad._accumulate(u, du)
            if hx.requires_grad:
                dh = np.einsum("bmnd,bmd->bnd", g_elem, ud)
                dh += g_dot.transpose(0, 2, 1) @ ud + ub @ w.T
                dh -= hd * (g_cos_cos.sum(axis=1) / norm_h**2)[..., None]
                ad._accumulate(hx, dh)
            if w_bilinear.requires_grad:
                ad._accumulate(w_bilinear, hd.reshape(-1, width).T @ ub.reshape(-1, width))

        return backward

    return ad._node(out, (u, hx, w_bilinear), factory)


def _pad4(n: int) -> int:
    """Next multiple of 4, minimum 4 (two 2x poolings need divisibility)."""
    return max(4, -(-n // 4) * 4)


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
        self.config = config
        self.invocations = 0  # one per predicted example, by construction
        self.tensors = {
            name: Tensor(arrays[name].astype(np.float32), requires_grad=is_parameter(name))
            for name in array_table(config)
        }

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
        """One joint BiLSTM pass over c ++ x_prepared for each example.

        Returns the (B, Lmax, 2H) encoder output; slice rows [0, M) for the
        context states and [M, M + N) for the utterance states.
        """
        lengths = [ex.m + ex.nx for ex in batch]
        lmax = max(lengths)
        ids = np.zeros((len(batch), lmax), dtype=np.int64)
        for i, ex in enumerate(batch):
            ids[i, : len(ex.ids)] = ex.ids
        t = self.tensors
        emb = K.embedding_lookup(t["embedding"], ids)
        fwd, bwd = ([t[f"lstm.{d}.{w}"] for w in ("w_ih", "w_hh", "b")] for d in ("fwd", "bwd"))
        return K.bilstm(emb, fwd, bwd, lengths=lengths)

    def feature_batch(self, batch: list[EncodedExample]):
        """Encode a batch into one padded (B, H, W, D) feature image + mask.

        Each example's context and utterance rows are gathered from the
        BiLSTM output onto a grid whose sides divide by 4, zero rows on the
        padding, and one ``encoding_layer`` call builds the whole image,
        channels-last as the U-Net takes it. The (B, H, W) mask marks real cells.
        The row masks multiply in the BiLSTM output's dtype: a bool or float64
        mask would promote the whole float32 graph after it to float64.
        """
        enc = self.context_layer(batch)
        m = np.array([ex.m for ex in batch])[:, None]
        nx = np.array([ex.nx for ex in batch])[:, None]
        rows = np.arange(_pad4(int(m.max())))
        cols = np.arange(_pad4(int(nx.max())))
        real_rows = rows < m  # (B, th)
        real_cols = cols < nx  # (B, tw)
        b = np.arange(len(batch))[:, None]
        dt = enc.data.dtype
        u = ad.mul(enc[b, np.where(real_rows, rows, 0)], real_rows[..., None].astype(dt))
        hx = ad.mul(enc[b, np.where(real_cols, m + cols, 0)], real_cols[..., None].astype(dt))
        masks = real_rows[:, :, None] & real_cols[:, None, :]
        return encoding_layer(u, hx, self.tensors["bilinear.w"]), masks

    def segmentation_layer(self, features: Tensor, training: bool) -> Tensor:
        """U-shaped encoder/decoder over the feature image -> per-cell logits.

        Channels-last throughout: (B, H, W, D) in, (B, H, W, 3) out. Two
        down-sampling blocks (conv, conv, pool; channels double), two
        up-sampling blocks (conv, conv, deconv; channels halve) with skip
        concatenation of the matching pre-pool features on the channel axis,
        then a per-cell affine head to the three edit types.
        """

        t = self.tensors

        def block(x, name):
            gamma, beta, mean, var = (t[f"{name}.bn.{a}"] for a in ("gamma", "beta", *BN_STATS))
            return K.conv_bn_relu(x, t[f"{name}.k"], gamma, beta, mean.data, var.data, training)

        d1 = block(block(features, "down1.conv1"), "down1.conv2")
        d2 = block(block(K.maxpool2(d1), "down2.conv1"), "down2.conv2")
        bottom = block(block(K.maxpool2(d2), "up1.conv1"), "up1.conv2")
        u1 = ad.concat([K.deconv2(bottom, t["up1.deconv.k"]), d2], axis=3)
        u2 = block(block(u1, "up2.conv1"), "up2.conv2")
        u2 = ad.concat([K.deconv2(u2, t["up2.deconv.k"]), d1], axis=3)
        return K.linear(u2, t["head.w"], t["head.b"])

    # -- objectives -------------------------------------------------------------

    def forward_loss(self, batch: list[EncodedExample]) -> Tensor:
        """Weighted cross-entropy over all unmasked cells of the batch."""
        features, masks = self.feature_batch(batch)
        logits = self.segmentation_layer(features, training=True)
        b, th, tw, _ = logits.data.shape
        targets = np.zeros((b, th, tw), dtype=np.int64)
        for i, ex in enumerate(batch):
            if ex.gold is None:
                raise ValueError("forward_loss needs gold matrices")
            targets[i, : ex.m, : ex.nx] = ex.gold
        return K.weighted_cross_entropy(
            ad.reshape(logits, (-1, N_EDIT_TYPES)),
            targets.reshape(-1),
            self.config.class_weights,
            mask=masks.reshape(-1),
        )

    def predict_encoded(self, ex: EncodedExample) -> np.ndarray:
        """Single forward pass -> edit matrix; exactly one model invocation."""
        with ad.no_grad():
            features, _ = self.feature_batch([ex])
            logits = self.segmentation_layer(features, training=False)
        self.invocations += 1
        return decode_matrix(logits.data[0], ex.m, ex.nx)

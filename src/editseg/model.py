"""The edit-matrix predictor: context layer, pair-feature encoding layer,
and U-shaped segmentation layer.

The joined context and the prepared incomplete utterance are encoded by one
shared BiLSTM pass; every (context word, utterance word) pair then gets a
relevance vector [h ⊙ u; cos(h, u); h W u], giving an M x N x D "image"
that a small UNet-style encoder/decoder segments into None / Substitute /
Insert cells. One forward pass yields the whole edit matrix, so inference
cost does not grow with output length.
"""

from __future__ import annotations

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
    """Per-example model input: id sequence for c ++ x_prepared plus dims."""

    ids: np.ndarray
    m: int  # joined-context length M
    nx: int  # prepared-incomplete length N + 1
    gold: Optional[np.ndarray] = None
    coverage: Optional[Coverage] = None


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
        gold, coverage = build_gold_matrix(example, conn, k)
    return EncodedExample(ids, len(c), len(x_prepared), gold, coverage)


# ---------------------------------------------------------------------------
# layers


def encoding_layer(u: Tensor, hx: Tensor, w_bilinear: Tensor) -> Tensor:
    """Pairwise relevance features: for every (m, n) the concatenation of the
    elementwise product, the cosine similarity, and the learned bilinear form.
    Shapes: u (M, 2H), hx (N, 2H) -> (M, N, 2H + 2)."""
    m = u.data.shape[0]
    n = hx.data.shape[0]
    width = u.data.shape[-1]
    if width != hx.data.shape[-1]:
        raise ValueError("context and utterance encodings must share hidden width")
    elem = ad.mul(ad.reshape(u, (m, 1, width)), ad.reshape(hx, (1, n, width)))
    dot = ad.tsum(elem, axis=2)
    norm_u = ad.sqrt(ad.tsum(ad.mul(u, u), axis=1))
    norm_h = ad.sqrt(ad.tsum(ad.mul(hx, hx), axis=1))
    denom = ad.maximum_scalar(
        ad.mul(ad.reshape(norm_u, (m, 1)), ad.reshape(norm_h, (1, n))), 1e-12
    )
    cos = ad.div(dot, denom)
    bil = ad.transpose(ad.matmul(ad.matmul(hx, w_bilinear), ad.transpose(u)))
    return ad.concat([elem, ad.reshape(cos, (m, n, 1)), ad.reshape(bil, (m, n, 1))], axis=2)


def _pad4(n: int) -> int:
    """Next multiple of 4, minimum 4 (two 2x poolings need divisibility)."""
    return max(4, -(-n // 4) * 4)


def pad_to_grid(feature_map: Tensor, target: tuple[int, int] | None = None):
    """Zero-pad an (M, N, D) map so both spatial dims divide by 4.

    Returns the padded map and the boolean mask of real cells. ``target``
    lets batch construction pad several maps to one shared grid.
    """
    m, n, _ = feature_map.data.shape
    th, tw = target if target is not None else (_pad4(m), _pad4(n))
    if th < m or tw < n or th % 4 or tw % 4:
        raise ValueError(f"bad pad target {(th, tw)} for map {(m, n)}")
    padded = ad.pad(feature_map, ((0, th - m), (0, tw - n), (0, 0)))
    mask = np.zeros((th, tw), dtype=bool)
    mask[:m, :n] = True
    return padded, mask


def decode_matrix(logits: np.ndarray, m: int, nx: int) -> np.ndarray:
    """Per-cell argmax over the unpadded region; ties break toward None."""
    return logits[:m, :nx].argmax(axis=2).astype(np.int8)


class RewriteModel:
    """Parameters plus the forward passes for training and prediction."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.invocations = 0  # one per predicted example, by construction
        rng = np.random.default_rng(seed)
        e, h, c0 = config.embed_dim, config.hidden_dim, config.base_channels
        d = config.feature_channels

        self.embedding = K.embedding_init(rng, config.vocab_size, e)
        self.lstm = K.bilstm_params_init(rng, e, h)
        self.w_bilinear = K.xavier_uniform(rng, (2 * h, 2 * h), 2 * h, 2 * h)

        def conv(c_out, c_in):
            return K.xavier_uniform(rng, (c_out, c_in, 3, 3), c_in * 9, c_out * 9)

        def deconv(c_in, c_out):
            return K.xavier_uniform(rng, (c_in, c_out, 2, 2), c_in * 4, c_out * 4)

        # Channel path: D -> C0 -> C0 | pool -> 2C0 -> 2C0 | pool
        # -> 4C0 -> 4C0 -> deconv 2C0 (+2C0 skip) -> 2C0 -> 2C0 -> deconv C0
        # (+C0 skip) -> head 2C0 -> 3.
        self.convs = {
            "down1.conv1": conv(c0, d),
            "down1.conv2": conv(c0, c0),
            "down2.conv1": conv(2 * c0, c0),
            "down2.conv2": conv(2 * c0, 2 * c0),
            "up1.conv1": conv(4 * c0, 2 * c0),
            "up1.conv2": conv(4 * c0, 4 * c0),
            "up2.conv1": conv(2 * c0, 4 * c0),
            "up2.conv2": conv(2 * c0, 2 * c0),
        }
        self.deconvs = {
            "up1.deconv": deconv(4 * c0, 2 * c0),
            "up2.deconv": deconv(2 * c0, c0),
        }
        self.bns = {name: K.BatchNormParams.create(k.data.shape[0]) for name, k in self.convs.items()}
        self.head_w = K.xavier_uniform(rng, (2 * c0, N_EDIT_TYPES), 2 * c0, N_EDIT_TYPES)
        self.head_b = K.zeros_param(N_EDIT_TYPES)

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        params = {"embedding": self.embedding}
        for direction in ("fwd", "bwd"):
            lp = getattr(self.lstm, direction)
            params[f"lstm.{direction}.w_ih"] = lp.w_ih
            params[f"lstm.{direction}.w_hh"] = lp.w_hh
            params[f"lstm.{direction}.b"] = lp.b
        params["bilinear.w"] = self.w_bilinear
        for name, k in self.convs.items():
            params[f"{name}.k"] = k
            params[f"{name}.bn.gamma"] = self.bns[name].gamma
            params[f"{name}.bn.beta"] = self.bns[name].beta
        for name, k in self.deconvs.items():
            params[f"{name}.k"] = k
        params["head.w"] = self.head_w
        params["head.b"] = self.head_b
        return params

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for name, bn in self.bns.items():
            out[f"{name}.bn.running_mean"] = bn.running_mean
            out[f"{name}.bn.running_var"] = bn.running_var
        return out

    def load_buffers(self, buffers: dict[str, np.ndarray]):
        for name, bn in self.bns.items():
            bn.running_mean = buffers[f"{name}.bn.running_mean"].copy()
            bn.running_var = buffers[f"{name}.bn.running_var"].copy()

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

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
        emb = K.embedding_lookup(self.embedding, ids)
        return K.bilstm(emb, self.lstm, lengths=lengths)

    def feature_batch(self, batch: list[EncodedExample]):
        """Encode a batch into one padded (B, D, H, W) feature image + mask."""
        enc = self.context_layer(batch)
        th = _pad4(max(ex.m for ex in batch))
        tw = _pad4(max(ex.nx for ex in batch))
        maps = []
        masks = np.zeros((len(batch), th, tw), dtype=bool)
        for i, ex in enumerate(batch):
            u = enc[i, : ex.m, :]
            hx = enc[i, ex.m : ex.m + ex.nx, :]
            fmap = encoding_layer(u, hx, self.w_bilinear)
            padded, mask = pad_to_grid(fmap, target=(th, tw))
            maps.append(ad.transpose(padded, (2, 0, 1)))
            masks[i] = mask
        return ad.stack(maps, axis=0), masks

    def segmentation_layer(self, features: Tensor, training: bool) -> Tensor:
        """U-shaped encoder/decoder over the feature image -> per-cell logits.

        Two down-sampling blocks (conv, conv, pool; channels double), two
        up-sampling blocks (conv, conv, deconv; channels halve) with skip
        concatenation of the matching pre-pool features, then a per-cell
        affine head to the three edit types. Output is (B, H, W, 3).
        """

        def block(x, name):
            return K.conv_bn_relu(x, self.convs[name], self.bns[name], training)

        d1 = block(block(features, "down1.conv1"), "down1.conv2")
        d2 = block(block(K.maxpool2(d1), "down2.conv1"), "down2.conv2")
        bottom = block(block(K.maxpool2(d2), "up1.conv1"), "up1.conv2")
        u1 = ad.concat([K.deconv2(bottom, self.deconvs["up1.deconv"]), d2], axis=1)
        u2 = block(block(u1, "up2.conv1"), "up2.conv2")
        u2 = ad.concat([K.deconv2(u2, self.deconvs["up2.deconv"]), d1], axis=1)
        return K.linear(ad.transpose(u2, (0, 2, 3, 1)), self.head_w, self.head_b)

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

    def predict(
        self,
        example: DialogueExample,
        vocab: Vocabulary,
        conn: ConnectionWordList = EMPTY_CONNECTION_WORDS,
        k: int = 0,
    ) -> np.ndarray:
        return self.predict_encoded(encode_example(example, vocab, conn, k))

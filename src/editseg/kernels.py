"""Differentiable neural-network kernels built on the autodiff core.

Covers everything the segmentation model needs: embedding lookup, a (bi)LSTM
over right-padded batches with hand-rolled backprop-through-time, 3x3
same-padded convolution fused with batch norm and ReLU, 2x2 max pooling,
2x2 stride-2 transposed convolution, affine layers, weighted cross-entropy,
Adam, and a finite-difference gradient checker. No ML framework underneath,
just numpy. Every kernel computes and allocates in its inputs' dtype: the
model runs in float32, and the gradient checks run the same kernels on
float64 inputs.

Kernels take their weights as plain tensors, and batch norm its running
statistics as arrays it updates in place. Which arrays a model has, and
their names, shapes and initial values, is listed in one place only:
``model.array_table``.

Every op takes a batch. Sequences are (B, L, E); images are channels-last
(B, H, W, C), the layout the pair-feature layer writes, so the U-Net runs
from the feature image to the per-cell head without a re-layout.

The two hot kernels are shaped for BLAS. The LSTM projects every step's
input in one GEMM before its time-major scan and runs each sequence in scan
order within its own length, so padding trails and no step needs a mask.
The 3x3 convolution is one GEMM per product (output, kernel gradient,
input gradient) over the image's pixels as rows, with no padding-ring rows.
The nine taps go on the narrower side: a C -> C' conv stacks each pixel's
neighbourhood of the input (rows × 9C) when C <= C', and otherwise
multiplies the input by all nine taps at once (rows × 9C') and adds the
blocks back at their offsets, so the forward builds nothing 9·max(C, C')
wide. Batch norm and ReLU after it are one node with a closed-form backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import Tensor


# ---------------------------------------------------------------------------
# embedding


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer ids; grad scatter-adds into rows."""
    ids = np.asarray(ids, dtype=np.int64)
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise IndexError(f"embedding id {int(bad)} out of range for vocab of {vocab}")
    return table[ids]


# ---------------------------------------------------------------------------
# LSTM


def _sigmoid_(z):
    """In-place logistic function, same arithmetic as ``1 / (1 + exp(-z))``."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def lstm(x: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor, lengths=None, reverse: bool = False) -> Tensor:
    """Unidirectional LSTM over right-padded ``x`` (B, L, E) -> (B, L, H).

    ``w_ih`` is (E, 4H), ``w_hh`` (H, 4H) and ``b`` (4H,), gate order i, f, g, o.

    The scan runs time-major. Each sequence is first gathered into scan
    order: position t for the forward direction, ``length - 1 - t`` for the
    reverse one, so the reverse direction reads each sequence backwards
    within its own length and padding always trails the real steps. The input
    projection of every step is one (B·L × E) @ (E × 4H) GEMM before the
    scan, leaving one (B × H) @ (H × 4H) GEMM plus the gate arithmetic per
    step, with no mask blend.

    Padding cannot leak: padded steps come after every real step of their
    sequence, so they never feed a real output; their outputs are zeroed
    once after the scan, and in BPTT their gradients are exact zeros. A
    right-padded batch therefore gives exactly the per-example results. The
    scan is one graph node: BPTT stores each step's ``dz`` and forms ``dx``,
    ``dW_ih``, ``dW_hh`` and ``db`` as single GEMMs after the loop.
    """
    xd = x.data
    B, L, E = xd.shape
    H = w_hh.data.shape[0]
    if lengths is None:
        lengths = np.full(B, L, dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (B,) or np.any(lengths < 0) or np.any(lengths > L):
            raise ValueError(f"lstm lengths must be {B} values in [0, {L}], got {lengths.tolist()}")
    steps = np.arange(L)
    valid = steps[:, None] < lengths[None, :]  # (L, B); same in scan and input order
    # order[t, b]: input position that scan step t of sequence b reads. It is
    # its own inverse, so the same gather maps scan outputs back.
    order = np.broadcast_to(steps[:, None], (L, B))
    if reverse:
        order = np.where(valid, lengths - 1 - steps[:, None], order)
    rows = np.arange(B)

    xs = xd[rows, order]  # (L, B, E), scan order
    gates = (xs.reshape(L * B, E) @ w_ih.data + b.data).reshape(L, B, 4 * H)
    dt = gates.dtype
    hs = np.zeros((L + 1, B, H), dtype=dt)  # hs[t] is the state entering step t
    cs = np.zeros((L + 1, B, H), dtype=dt)
    tcs = np.empty((L, B, H), dtype=dt)
    ig = np.empty((B, H), dtype=dt)
    for t in range(L):
        z = gates[t]  # becomes the step's activations i, f, g, o in place
        z += hs[t] @ w_hh.data
        _sigmoid_(z[:, : 2 * H])
        _sigmoid_(z[:, 3 * H :])
        np.tanh(z[:, 2 * H : 3 * H], out=z[:, 2 * H : 3 * H])
        np.multiply(z[:, H : 2 * H], cs[t], out=cs[t + 1])
        np.multiply(z[:, :H], z[:, 2 * H : 3 * H], out=ig)
        cs[t + 1] += ig
        np.tanh(cs[t + 1], out=tcs[t])
        np.multiply(z[:, 3 * H :], tcs[t], out=hs[t + 1])
    out = hs[1:][order.T, rows[:, None]]  # (B, L, H), input order
    out[~valid.T] = 0.0

    def factory(node):
        def backward():
            g4 = gates.reshape(L, B, 4, H)
            i, f, g, o = g4[:, :, 0], g4[:, :, 1], g4[:, :, 2], g4[:, :, 3]
            # Per-step factors turning (dc, dc, dc, dh) into the gate
            # pre-activation gradients dz = (di, df, dg, do).
            fac = np.empty((L, B, 4, H), dtype=dt)
            fac[:, :, 0] = g * i * (1.0 - i)
            fac[:, :, 1] = cs[:-1] * f * (1.0 - f)
            fac[:, :, 2] = i * (1.0 - g * g)
            fac[:, :, 3] = tcs * o * (1.0 - o)
            dc_from_h = o * (1.0 - tcs * tcs)
            dout = node.grad[rows, order]  # (L, B, H), scan order
            dout[~valid] = 0.0
            dz = np.empty((L, B, 4, H), dtype=dt)
            dh = np.zeros((B, H), dtype=dt)
            dc = np.zeros((B, H), dtype=dt)
            w_hh_t = w_hh.data.T
            for t in range(L - 1, -1, -1):
                dh += dout[t]
                dc += dh * dc_from_h[t]
                np.multiply(fac[t, :, :3], dc[:, None, :], out=dz[t, :, :3])
                np.multiply(fac[t, :, 3], dh, out=dz[t, :, 3])
                np.matmul(dz[t].reshape(B, 4 * H), w_hh_t, out=dh)
                dc *= f[t]
            dz = dz.reshape(L * B, 4 * H)
            if x.requires_grad:
                dx = (dz @ w_ih.data.T).reshape(L, B, E)
                ad._accumulate(x, dx[order.T, rows[:, None]])
            if w_ih.requires_grad:
                ad._accumulate(w_ih, xs.reshape(L * B, E).T @ dz)
            if w_hh.requires_grad:
                ad._accumulate(w_hh, hs[:-1].reshape(L * B, H).T @ dz)
            if b.requires_grad:
                ad._accumulate(b, dz.sum(axis=0))

        return backward

    return ad._node(out, (x, w_ih, w_hh, b), factory)


def bilstm(x: Tensor, fwd, bwd, lengths=None) -> Tensor:
    """Bidirectional LSTM, (B, L, E) -> (B, L, 2H); forward states first.

    ``fwd`` and ``bwd`` are each direction's ``(w_ih, w_hh, b)``.
    """
    return ad.concat([lstm(x, *fwd, lengths=lengths), lstm(x, *bwd, lengths=lengths, reverse=True)], axis=2)


# ---------------------------------------------------------------------------
# spatial ops, channels-last (B, H, W, C)


def _stack9(img: np.ndarray) -> np.ndarray:
    """(B, H, W, C) channels-last -> (B·H·W, 9C): each pixel's 3x3 neighbourhood.

    Column block 3a + c holds the pixel at offset (a-1, c-1), zero outside
    the image. The image is copied once into a zero-ringed buffer, which is
    read through the nine offsets as one strided window.
    """
    B, H, W, C = img.shape
    p = np.zeros((B, H + 2, W + 2, C), dtype=img.dtype)
    p[:, 1:-1, 1:-1] = img
    # Axes (b, i, j, a, c, channel); a and c step like i and j.
    win = as_strided(p, (B, H, W, 3, 3, C), p.strides[:3] + p.strides[1:], writeable=False)
    return win.reshape(B * H * W, 9 * C)


def _col2im(blocks: np.ndarray, B: int, H: int, W: int) -> np.ndarray:
    """Adjoint of ``_stack9``: (B·H·W, 9C) -> (B, H, W, C).

    Adds column block 3a + c of each pixel's row to the pixel at offset
    (a-1, c-1); what falls on the ring is dropped.
    """
    z = blocks.reshape(B, H, W, 3, 3, -1)
    p = np.zeros((B, H + 2, W + 2, z.shape[-1]), dtype=blocks.dtype)
    for a in range(3):
        for c in range(3):
            p[:, a : a + H, c : c + W] += z[:, :, :, a, c]
    return p[:, 1:-1, 1:-1]


def _reversed_taps(k: np.ndarray) -> np.ndarray:
    """(C', C, 3, 3) -> (9C', C): row block u is tap 8 - u, as (C' × C)."""
    return k[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(9 * k.shape[0], k.shape[1])


def conv2d(x: Tensor, kernels: Tensor) -> Tensor:
    """3x3 same-padded convolution (cross-correlation); (B, H, W, C) -> (B, H, W, C').

    ``kernels`` has shape (C', C, 3, 3). Each product is one GEMM over the
    image's B·H·W pixels as rows, with the nine taps stacked on the narrower
    side:

    - C <= C' (im2col): out = ``_stack9(x) @ k9``, (rows × 9C) @ (9C × C').
    - C > C' (kn2row): ``x_rows @ k_revᵀ``, (rows × C) @ (C × 9C'), gives
      each pixel's contribution to its nine neighbours, and ``_col2im`` adds
      them at their offsets.

    The rule follows the kernel's shape. Stacking the narrower side keeps
    the forward's stacked array and GEMM dimension at 9·min(C, C'): the
    first U-Net conv (402 -> 32) reads the pair-feature image in place instead
    of copying it nine times over, and the convs that widen the channels
    copy their narrow input rather than add up a wide output.

    The backward is the same on both sides. The output gradient is stacked,
    ``g9 = _stack9(dOut)`` (rows × 9C'); block u of a pixel's row is the
    neighbour whose tap 8 - u reads that pixel, so the kernel gradient
    ``x_rowsᵀ @ g9`` comes out with its taps reversed and the input gradient
    is ``g9 @ k_rev``.
    """
    xd = x.data
    B, H, W, C = xd.shape
    Co, Ck, kh, kw = kernels.data.shape
    if (kh, kw) != (3, 3):
        raise ValueError("conv2d kernels must be 3x3")
    if Ck != C:
        raise ValueError(f"conv2d channel mismatch: input has {C}, kernels expect {Ck}")

    k_rev = None  # built only where a product uses it
    if C <= Co:
        # k9ᵀ (C' × 9C) transposes each output channel's contiguous (C, 9)
        # block, a cache-friendlier copy than building k9 (9C × C') itself.
        k9t = kernels.data.reshape(Co, C, 9).transpose(0, 2, 1).reshape(Co, 9 * C)
        out = (_stack9(xd) @ k9t.T).reshape(B, H, W, Co)
    else:
        k_rev = _reversed_taps(kernels.data)
        out = _col2im(xd.reshape(B * H * W, C) @ k_rev.T, B, H, W)

    def factory(node):
        def backward():
            g9 = _stack9(node.grad)
            if kernels.requires_grad:
                dk = (xd.reshape(B * H * W, C).T @ g9).reshape(C, 3, 3, Co)
                ad._accumulate(kernels, dk[:, ::-1, ::-1].transpose(3, 0, 1, 2))
            if x.requires_grad:
                k_r = _reversed_taps(kernels.data) if k_rev is None else k_rev
                ad._accumulate(x, (g9 @ k_r).reshape(B, H, W, C))

        return backward

    return ad._node(out, (x, kernels), factory)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2, (B, H, W, C) -> (B, H/2, W/2, C).

    Gradient routes to the first argmax per window, in row-major window order.
    """
    B, H, W, C = x.data.shape
    if H % 2 or W % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {H}x{W}")
    h, w = H // 2, W // 2
    # The window goes on the last axis, (B, h, w, C, 4), so argmax reads it
    # contiguously.
    r = x.data.reshape(B, h, 2, w, 2, C).transpose(0, 1, 3, 5, 2, 4).reshape(B, h, w, C, 4)
    idx = r.argmax(axis=4)
    out = np.take_along_axis(r, idx[..., None], axis=4)[..., 0]

    def factory(node):
        def backward():
            dr = np.zeros((B, h, w, C, 4), dtype=x.data.dtype)
            np.put_along_axis(dr, idx[..., None], node.grad[..., None], axis=4)
            dx = dr.reshape(B, h, w, C, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(B, H, W, C)
            ad._accumulate(x, dx)

        return backward

    return ad._node(out, (x,), factory)


def deconv2(x: Tensor, kernels: Tensor) -> Tensor:
    """Transposed convolution, 2x2 kernel, stride 2; (B, H, W, C) -> (B, 2H, 2W, C').

    ``kernels`` has shape (C, C', 2, 2).
    """
    B, H, W, C = x.data.shape
    Ci, Co, kh, kw = kernels.data.shape
    if (kh, kw) != (2, 2):
        raise ValueError("deconv2 kernels must be 2x2")
    if Ci != C:
        raise ValueError(f"deconv2 channel mismatch: input has {C}, kernels expect {Ci}")

    out6 = np.einsum("bijc,cdkl->bikjld", x.data, kernels.data, optimize=True)
    out = out6.reshape(B, 2 * H, 2 * W, Co)

    def factory(node):
        def backward():
            g6 = node.grad.reshape(B, H, 2, W, 2, Co)
            if x.requires_grad:
                ad._accumulate(x, np.einsum("bikjld,cdkl->bijc", g6, kernels.data, optimize=True))
            if kernels.requires_grad:
                ad._accumulate(kernels, np.einsum("bijc,bikjld->cdkl", x.data, g6, optimize=True))

        return backward

    return ad._node(out, (x, kernels), factory)


# ---------------------------------------------------------------------------
# batch normalization + ReLU

BN_MOMENTUM = 0.1  # weight of the newest batch in the running statistics
BN_EPS = 1e-5


def bn_relu(y: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var, training: bool) -> Tensor:
    """ReLU(batch norm(y)) over the channels (last axis) of (B, H, W, C), one node.

    Training normalizes by the batch's mean and biased variance over
    (B, H, W) and moves the running statistics toward them, in place. Eval
    folds the running statistics into one per-channel scale and shift. The
    backward is the closed form of Ioffe & Szegedy (2015): with g the output
    gradient passed through the ReLU, x̂ the normalized input and n = B·H·W,
    dy = γ/σ · (g - Σg/n - x̂ · Σ(g·x̂)/n) in training, and dy = γ/σ · g in
    eval, where the statistics are constants.
    """
    yd = y.data
    axes = (0, 1, 2)
    if training:
        mu = yd.mean(axis=axes)
        xhat = yd - mu
        var = np.mean(xhat * xhat, axis=axes)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv
        out = xhat * gamma.data
        out += beta.data
        for stat, batch_stat in ((running_mean, mu), (running_var, var)):
            stat *= 1.0 - BN_MOMENTUM
            stat += BN_MOMENTUM * batch_stat
    else:
        mu = running_mean
        inv = 1.0 / np.sqrt(running_var + BN_EPS)
        scale = gamma.data * inv
        out = yd * scale
        out += beta.data - mu * scale
        xhat = None  # formed in the backward, which eval mode seldom runs
    np.maximum(out, 0.0, out=out)

    def factory(node):
        def backward():
            g = node.grad * (node.data > 0.0)
            xh = (yd - mu) * inv if xhat is None else xhat
            dbeta = g.sum(axis=axes)
            dgamma = (g * xh).sum(axis=axes)
            if gamma.requires_grad:
                ad._accumulate(gamma, dgamma)
            if beta.requires_grad:
                ad._accumulate(beta, dbeta)
            if y.requires_grad:
                if training:
                    n = yd.size // yd.shape[-1]
                    g -= dbeta / n
                    g -= xh * (dgamma / n)
                g *= gamma.data * inv
                ad._accumulate(y, g)

        return backward

    return ad._node(out, (y, gamma, beta), factory)


def conv_bn_relu(
    x: Tensor, kernels: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var, training: bool
) -> Tensor:
    """Conv module of the segmentation net: 3x3 ``conv2d``, then ``bn_relu``.

    Channels-last (B, H, W, C) -> (B, H, W, C'); ``kernels`` is (C', C, 3, 3).
    """
    return bn_relu(conv2d(x, kernels), gamma, beta, running_mean, running_var, training)


# ---------------------------------------------------------------------------
# affine / loss


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: (..., A) @ (A, B) + (B,)."""
    in_dim = x.data.shape[-1]
    if in_dim != w.data.shape[0]:
        raise ValueError(f"linear inner dims differ: input {in_dim}, weight {w.data.shape}")
    lead = x.data.shape[:-1]
    flat = ad.reshape(x, (-1, in_dim)) if x.data.ndim != 2 else x
    out = ad.matmul(flat, w)
    if b is not None:
        out = ad.add(out, b)
    if x.data.ndim != 2:
        out = ad.reshape(out, lead + (w.data.shape[1],))
    return out


def weighted_cross_entropy(logits: Tensor, targets, weights, mask=None) -> Tensor:
    """Mean over unmasked cells of ``weights[target] * -log softmax(logits)[target]``.

    ``logits`` is (K, n_classes); ``targets`` integer class ids; ``mask`` an
    optional boolean keep-flag per cell. The loss has the logits' dtype. The
    log-sum-exp subtracts each row's maximum first, so ``exp`` only sees
    values <= 0 and cannot overflow in float32.
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=logits.data.dtype)
    if np.any(weights <= 0):
        raise ValueError("class weights must be positive")
    K = logits.data.shape[0]
    keep = np.ones(K, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    sel = np.flatnonzero(keep)
    if sel.size == 0:
        raise ValueError("weighted_cross_entropy: all cells are masked")

    z = logits.data[sel]
    t = targets[sel]
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    logp_t = z[np.arange(sel.size), t] - lse
    w_t = weights[t]
    loss = (-w_t * logp_t).mean()

    def factory(node):
        def backward():
            p = np.exp(z - lse[:, None])
            p[np.arange(sel.size), t] -= 1.0
            p *= w_t[:, None] * (node.grad / sel.size)
            g = np.zeros_like(logits.data)
            g[sel] = p
            ad._accumulate(logits, g)

        return backward

    return ad._node(loss, (logits,), factory)


# ---------------------------------------------------------------------------
# optimization


ADAM_BETA1 = 0.9  # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates, one slot per parameter."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @staticmethod
    def for_params(params) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update; mutates parameter data in place."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            continue
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# verification


def grad_check(f, params, h: float = 1e-4) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f()`` rebuilds and returns a scalar Tensor; ``params`` are the leaves to
    probe. Every coordinate of every parameter is perturbed by ±h in place,
    so each parameter must be C-contiguous float64: a strided view would be
    probed through a copy the computation never reads, and float32 cannot
    resolve a ±1e-4 difference. Anything else raises ``ValueError``.
    """
    for i, p in enumerate(params):
        if p.data.dtype != np.float64 or not p.data.flags.c_contiguous:
            layout = "C-contiguous" if p.data.flags.c_contiguous else "strided"
            raise ValueError(
                f"grad_check parameter {i} of shape {p.data.shape} is {layout} "
                f"{p.data.dtype}; it must be C-contiguous float64"
            )
    for p in params:
        p.zero_grad()
    out = f()
    out.backward()
    analytic = [None if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        if ana is None:
            continue
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            num = (fp - fm) / (2.0 * h)
            a = ana.reshape(-1)[i]
            denom = max(abs(num), abs(a), 1e-6)
            worst = max(worst, abs(num - a) / denom)
    return worst

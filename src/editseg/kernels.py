"""Differentiable neural-network kernels built on the autodiff core.

Covers everything the segmentation model needs: a BiLSTM over the word
embeddings of right-padded batches with hand-rolled backprop-through-time,
3x3 same-padded convolution fused with batch norm and ReLU, 2x2 max pooling,
2x2 stride-2 transposed convolution joined to the U-Net's skip features,
affine layers, weighted cross-entropy and Adam. No ML framework underneath,
just numpy. Every kernel computes and allocates in its inputs' dtype: the
model runs in float32, and the gradient checks run the same kernels on
float64 inputs.

Kernels take their weights as plain tensors, and batch norm its running
statistics as arrays it updates in place. Which arrays a model has, and
their names, shapes and initial values, is listed in one place only:
``model.array_table``.

Every op takes a batch. Sequences are (B, L) ids into a (V, E) embedding
table; images are channels-last (B, H, W, C), the layout the pair-feature
layer writes, so the U-Net runs from the feature image to the per-cell head
without a re-layout. Images have any size: pooling gives an odd side a
partial last window, and a transposed convolution crops its output to the
grid of the skip it joins. A padded batch passes its (B, H, W) real-cell
mask to batch norm, which takes its statistics over the real cells and
zeroes the others.

The two hot kernels are shaped for BLAS. The LSTM is one time-major scan
that advances both directions, which share each step's numpy calls; every
step's embedding row is gathered from the table in scan order and projected
in one GEMM per direction before the scan. A step makes one recurrent
product for both directions, against the (2, H, 4H) buffer a model keeps
both ``w_hh`` in, and BPTT one against its transpose; a call that builds no
graph keeps no BPTT history. The 3x3 convolution is one GEMM per product
(output, kernel gradient, input gradient) over the image's pixels as rows,
with no padding-ring rows.
The nine taps go on the narrower side: a C -> C' conv stacks each pixel's
neighbourhood of the input (rows × 9C) when C <= C', and otherwise
multiplies the input by all nine taps at once (rows × 9C') and adds the
blocks back at their offsets, so the forward builds nothing 9·max(C, C')
wide. Batch norm and ReLU after it are one node with a closed-form backward.

A model keeps each conv kernel in the layout its GEMMs read
(``kernel_storage``), exposed as a view of the kernel's logical shape: a
contiguous (C', 3, 3, C) for an im2col conv and a (3, 3, C', C) with the
taps reversed for a kn2row conv; a deconv kernel's own C order is already
its operand's. A forward then takes its operand with a reshape, with no
per-call re-layout, and a conv kernel's gradient comes back in its kernel's
memory order, so Adam's elementwise updates on it stay contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import Tensor


# ---------------------------------------------------------------------------
# LSTM


def _sigmoid_(z):
    """In-place logistic function, same arithmetic as ``1 / (1 + exp(-z))``."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def stacked_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.stack([a, b])``, read without a copy when ``a`` and ``b`` are
    ``[0]`` and ``[1]`` of one (2, ...) buffer, as a model keeps both
    directions' ``w_hh`` (``RewriteModel._adopt``)."""
    s = a.base
    halves = s is not None and s is b.base and s.shape == (2, *a.shape)
    if halves and [v.__array_interface__ for v in s] == [a.__array_interface__, b.__array_interface__]:
        return s
    return np.stack([a, b])


def lstm(table: Tensor, ids, fwd, bwd, lengths) -> Tensor:
    """Bidirectional LSTM over right-padded (B, L) ids -> (B, L, 2H), forward states first.

    ``table`` is the (V, E) embedding; an id outside [0, V) raises
    ``IndexError``. ``fwd`` and ``bwd`` are each direction's
    ``(w_ih, w_hh, b)``: (E, 4H), (H, 4H) and (4H,), gate order i, f, g, o.

    One time-major scan advances both directions. Each sequence's steps are
    gathered from the table in scan order, position t forward and
    ``length - 1 - t`` backward, so padding trails the real steps in both.
    Each direction projects every step's input in one (B·L × E) @ (E × 4H)
    GEMM before the scan. A step runs one recurrent product for both
    directions, (2, B, H) @ (2, H, 4H) into one (2, B, 4H) buffer, which
    numpy hands to BLAS as the two per-direction GEMMs; the (2, H, 4H)
    operand is the buffer both ``w_hh`` are views of when a model holds
    them so (``stacked_pair``). Then the gate arithmetic runs once for both:
    tanh of the g slot, then the logistic function over the whole gate row.
    A float32 preactivation below about -88 overflows ``exp`` to inf, whose
    logistic value 1 / (1 + inf) = 0 is the exact limit.

    When the call builds no graph (under ``no_grad``, or when no input needs
    a gradient), the scan keeps no history for BPTT (``_scan_ahead``): only
    the states ``hs`` and the gate projection are per-step arrays, and the
    rest lives in fixed scratch buffers. Both loops do the same arithmetic,
    so their outputs are bitwise equal.

    Padded steps never feed a real output; their outputs are zeroed after
    the scan and their BPTT gradients are exact zeros, so a padded batch
    gives exactly the per-example results. The scan is one graph node: BPTT
    runs the shared loop backwards, storing each step's ``dz``, with one
    product per step against the stacked ``w_hh`` transposed, and forms
    each direction's ``dx``, ``dW_ih``, ``dW_hh`` and ``db`` as single GEMMs
    after it. Both directions' ``dx`` go into the table's rows with
    ``np.add.at``, which sums every occurrence of a repeated id.
    """
    ids = np.asarray(ids, dtype=np.int64)
    B, L = ids.shape
    vocab, E = table.data.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise IndexError(f"embedding id {int(bad)} out of range for vocab of {vocab}")
    H = fwd[1].data.shape[0]
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,) or np.any(lengths < 0) or np.any(lengths > L):
        raise ValueError(f"lstm lengths must be {B} values in [0, {L}], got {lengths.tolist()}")
    valid = np.arange(L)[:, None] < lengths  # (L, B); same in scan and input order
    # order[d, t, b]: input position that scan step t of sequence b reads in
    # direction d; its own inverse, so the same gather maps outputs back.
    ahead = np.broadcast_to(np.arange(L)[:, None], (L, B))
    order = np.stack([ahead, np.where(valid, lengths - 1 - ahead, ahead)])
    rows, dirs, weights = np.arange(B), np.arange(2), (fwd, bwd)
    parents = (table, *fwd, *bwd)

    xs = table.data[ids[rows, order]]  # (2, L, B, E), each direction in its scan order
    dt = xs.dtype
    gates = np.empty((L, 2, B, 4 * H), dtype=dt)  # step t's gates, both directions
    for d, (w_ih, _, b) in enumerate(weights):
        np.add((xs[d].reshape(L * B, E) @ w_ih.data).reshape(L, B, 4 * H), b.data, out=gates[:, d])
    w_hh = stacked_pair(fwd[1].data, bwd[1].data)  # (2, H, 4H)
    hs = np.zeros((L + 1, 2, B, H), dtype=dt)  # hs[t]: the states entering step t
    if not ad._keeps_graph(parents):
        _scan_ahead(gates, w_hh, hs)
        return Tensor(_outputs(hs, order, valid))
    cs = np.zeros((L + 1, 2, B, H), dtype=dt)  # cs[t]: the cells entering step t
    tgs, tcs = np.empty((2, L, 2, B, H), dtype=dt)  # tanh of the g slot and of the cell
    rec, ig = np.empty((2, B, 4 * H), dtype=dt), np.empty((2, B, H), dtype=dt)
    with np.errstate(over="ignore"):
        for t in range(L):
            z = gates[t]  # becomes i, f, σ(g), o in place
            np.matmul(hs[t], w_hh, out=rec)
            z += rec
            np.tanh(z[..., 2 * H : 3 * H], out=tgs[t])
            _sigmoid_(z)
            np.multiply(z[..., H : 2 * H], cs[t], out=cs[t + 1])
            np.multiply(z[..., :H], tgs[t], out=ig)
            cs[t + 1] += ig
            np.tanh(cs[t + 1], out=tcs[t])
            np.multiply(z[..., 3 * H :], tcs[t], out=hs[t + 1])

    def backward(grad):
        i, f, _, o = np.moveaxis(gates.reshape(L, 2, B, 4, H), 3, 0)
        # Per-step factors turning (dc, dc, dc, dh) into the gate
        # pre-activation gradients dz = (di, df, dg, do).
        fac = np.empty((L, 2, B, 4, H), dtype=dt)
        fac[..., 0, :] = tgs * i * (1.0 - i)
        fac[..., 1, :] = cs[:-1] * f * (1.0 - f)
        fac[..., 2, :] = i * (1.0 - tgs * tgs)
        fac[..., 3, :] = tcs * o * (1.0 - o)
        dc_from_h = o * (1.0 - tcs * tcs)
        dout = grad.reshape(B, L, 2, H)[rows, order.transpose(1, 0, 2), dirs[:, None]]  # (L, 2, B, H)
        dout.transpose(0, 2, 1, 3)[~valid] = 0.0
        dz = np.empty((2, L, B, 4, H), dtype=dt)  # each direction's dz contiguous
        dh, dc = np.zeros((2, 2, B, H), dtype=dt)
        w_hh_t = w_hh.transpose(0, 2, 1)
        for t in range(L - 1, -1, -1):
            dh += dout[t]
            dc += dh * dc_from_h[t]
            np.multiply(fac[t, ..., :3, :], dc[:, :, None], out=dz[:, t, :, :3])
            np.multiply(fac[t, ..., 3, :], dh, out=dz[:, t, :, 3])
            np.matmul(dz[:, t].reshape(2, B, 4 * H), w_hh_t, out=dh)
            dc *= f[t]
        dx = np.empty((2, L, B, E), dtype=dt)
        for d, (w_ih, w_hh_d, b) in enumerate(weights):
            dzd = dz[d].reshape(L * B, 4 * H)
            np.matmul(dzd, w_ih.data.T, out=dx[d].reshape(L * B, E))
            ad._accumulate(w_ih, xs[d].reshape(L * B, E).T @ dzd)
            ad._accumulate(w_hh_d, hs[:-1, d].reshape(L * B, H).T @ dzd)
            ad._accumulate(b, dzd.sum(axis=0))
        both = dx[dirs[:, None, None], order.transpose(0, 2, 1), rows[:, None]]  # (2, B, L, E)
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids, both[0] + both[1])
        ad._accumulate(table, dtable)

    return ad._node(_outputs(hs, order, valid), parents, backward)


def _outputs(hs, order, valid):
    """(L + 1, 2, B, H) scan states -> (B, L, 2H) outputs in input order, padding zeroed."""
    _, L, B = order.shape
    # out[b, p, d] = hs[1 + order[d, p, b], d, b]
    out = hs[1:][order.transpose(2, 1, 0), np.arange(2), np.arange(B)[:, None, None]].reshape(B, L, -1)
    out[~valid.T] = 0.0
    return out


def _scan_ahead(gates, w_hh, hs):
    """``lstm``'s scan keeping nothing for BPTT: fills ``hs``, leaves ``gates``.

    The pre-activations z, the recurrent product, tanh(c) and the pair
    [tanh(g) | c] are fixed buffers whose views are all built before the
    loop. The cell update f·c + i·tanh(g) is one product of z's [i | f] with
    the pair and one sum of its halves into the pair's c: 11 numpy calls a
    step, each value the graph loop's bit for bit.
    """
    L, _, B, H4 = gates.shape
    H = H4 // 4
    z, rec = np.empty((2, 2, B, H4), dtype=gates.dtype)
    pair = np.zeros((2, B, 2 * H), dtype=gates.dtype)  # [tanh(g) | c], the cell starting at zero
    prod, tc = np.empty_like(pair), np.empty((2, B, H), dtype=gates.dtype)
    z_if, z_g, z_o = z[..., : 2 * H], z[..., 2 * H : 3 * H], z[..., 3 * H :]
    tg, c = pair[..., :H], pair[..., H:]
    ig, fc = prod[..., :H], prod[..., H:]
    h, g = list(hs), list(gates)
    with np.errstate(over="ignore"):
        for t in range(L):
            np.matmul(h[t], w_hh, out=rec)
            np.add(g[t], rec, out=z)
            np.tanh(z_g, out=tg)
            _sigmoid_(z)
            np.multiply(z_if, pair, out=prod)
            np.add(ig, fc, out=c)
            np.tanh(c, out=tc)
            np.multiply(z_o, tc, out=h[t + 1])


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
    z = blocks.reshape(B, H, W, 3, 3, blocks.shape[1] // 9)
    p = np.zeros((B, H + 2, W + 2, z.shape[-1]), dtype=blocks.dtype)
    for a in range(3):
        for c in range(3):
            p[:, a : a + H, c : c + W] += z[:, :, :, a, c]
    return p[:, 1:-1, 1:-1]


def _uses_im2col(k: np.ndarray) -> bool:
    """Whether a (C', C, 3, 3) conv stacks its input's taps (C <= C') or its output's."""
    return k.shape[1] <= k.shape[0]


def kernel_storage(k: np.ndarray) -> np.ndarray:
    """A copy of ``k`` in the buffer its GEMMs read, as a view of k's shape.

    - A conv kernel (C', C, 3, 3) that uses im2col is stored as a contiguous
      (C', 3, 3, C): ``_im2col_rows``, its forward operand transposed, is
      then a reshape.
    - One that uses kn2row is stored as a contiguous (3, 3, C', C) with the
      taps reversed: ``_reversed_taps``, its forward operand transposed and
      its input gradient's operand, is then a reshape.
    - A deconv kernel (C, C', 2, 2) keeps its C order: ``deconv2``'s forward
      operand (C × 4C') is its reshape.

    The shape, ``k.shape[:2]`` and the C-order bytes (what a checkpoint
    writes) are unchanged. The kernels take any layout: for another one,
    numpy copies where the reshape needs it.
    """
    if k.shape[2:] == (2, 2):
        return k.copy()
    if _uses_im2col(k):
        return k.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
    rev = k[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).copy()
    return rev.transpose(2, 3, 0, 1)[:, :, ::-1, ::-1]


def _im2col_rows(k: np.ndarray) -> np.ndarray:
    """(C', C, 3, 3) -> k9ᵀ (C' × 9C): column block 3a + c is tap (a, c), as (C' × C)."""
    return k.transpose(0, 2, 3, 1).reshape(k.shape[0], 9 * k.shape[1])


def _reversed_taps(k: np.ndarray) -> np.ndarray:
    """(C', C, 3, 3) -> (9C' × C): row block u is tap 8 - u, as (C' × C)."""
    return k[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(9 * k.shape[0], k.shape[1])


def conv2d(x: Tensor, kernels: Tensor) -> Tensor:
    """3x3 same-padded convolution (cross-correlation); (B, H, W, C) -> (B, H, W, C').

    ``kernels`` has shape (C', C, 3, 3). Each product is one GEMM over the
    image's B·H·W pixels as rows, with the nine taps stacked on the narrower
    side:

    - C <= C' (im2col): out = ``_stack9(x) @ k9``, (rows × 9C) @ (9C × C').
    - C > C' (kn2row): ``x_rows @ k_revᵀ``, (rows × C) @ (C × 9C') with the
      taps reversed, gives each pixel's contribution to its nine neighbours,
      and ``_col2im`` adds them at their offsets.

    The rule follows the kernel's shape (``_uses_im2col``). Stacking the
    narrower side keeps the forward's stacked array and GEMM dimension at
    9·min(C, C'): the first U-Net conv (402 -> 32) reads the pair-feature
    image in place instead of copying it nine times over, and the convs that
    widen the channels copy their narrow input rather than add up a wide
    output.

    Both forward operands, k9 and k_revᵀ, are transposed views of
    (C' × 9C) and (9C' × C) arrays, which a kernel held in
    ``kernel_storage`` hands over without a copy. That orientation is the
    faster one at training's row counts. At batch 1 a contiguous (9C × C')
    operand is a little faster, but OpenBLAS sums the two orientations in
    different orders on some small shapes, so switching would change a
    trained model's float32 outputs.

    The backward is the same on both sides. The output gradient is stacked,
    ``g9 = _stack9(dOut)`` (rows × 9C'); block u of a pixel's row is the
    neighbour whose tap 8 - u reads that pixel, so the kernel gradient
    ``x_rowsᵀ @ g9`` comes out with its taps reversed and the input gradient
    is ``g9 @ _reversed_taps(k)``. The kernel gradient is handed back in
    ``kernel_storage``, the memory order of the model's own kernels.
    """
    xd = x.data
    B, H, W, C = xd.shape
    Co, Ck, kh, kw = kernels.data.shape
    if (kh, kw) != (3, 3):
        raise ValueError("conv2d kernels must be 3x3")
    if Ck != C:
        raise ValueError(f"conv2d channel mismatch: input has {C}, kernels expect {Ck}")

    if _uses_im2col(kernels.data):
        out = (_stack9(xd) @ _im2col_rows(kernels.data).T).reshape(B, H, W, Co)
    else:
        out = _col2im(xd.reshape(B * H * W, C) @ _reversed_taps(kernels.data).T, B, H, W)

    def backward(grad):
        g9 = _stack9(grad)
        dk = (xd.reshape(B * H * W, C).T @ g9).reshape(C, 3, 3, Co)
        ad._accumulate(kernels, kernel_storage(dk[:, ::-1, ::-1].transpose(3, 0, 1, 2)))
        ad._accumulate(x, (g9 @ _reversed_taps(kernels.data)).reshape(B, H, W, C))

    return ad._node(out, (x, kernels), backward)


# The four cells of a 2x2 window, in row-major order.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def window_max(a: np.ndarray) -> np.ndarray:
    """Max over 2x2 windows, stride 2, on axes 1 and 2: (B, H, W, ...) ->
    (B, ceil(H/2), ceil(W/2), ...).

    On an odd side the last window holds one row or column only, and its
    maximum is over the cells that exist. Window cell (a, c) is the strided
    view ``a[:, a::2, c::2]``, which covers the first ``(H - a + 1) // 2``
    window rows and ``(W - c + 1) // 2`` window columns. Bool arrays pool to
    "any cell set".
    """
    out = a[:, ::2, ::2].copy()
    for r, c in _WINDOW[1:]:
        cell = a[:, r::2, c::2]
        part = out[:, : cell.shape[1], : cell.shape[2]]
        np.maximum(part, cell, out=part)
    return out


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2, (B, H, W, C) -> (B, ceil(H/2), ceil(W/2), C).

    The forward is ``window_max``: ``np.maximum`` over the strided views of
    the window cells, with a partial window on an odd side. Gradient routes
    to the first cell per window, in row-major window order, that equals the
    window's maximum.
    """
    xd = x.data
    out = window_max(xd)

    def backward(grad):
        dx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)  # windows whose maximum is not yet routed
        for a, c in _WINDOW:
            cell = xd[:, a::2, c::2]
            win = np.s_[:, : cell.shape[1], : cell.shape[2]]
            hit = (cell == out[win]) & free[win]
            dx[:, a::2, c::2] = np.where(hit, grad[win], 0.0)
            free[win] &= ~hit
        ad._accumulate(x, dx)

    return ad._node(out, (x,), backward)


def deconv2(x: Tensor, kernels: Tensor, skip: Tensor, mask=None) -> Tensor:
    """Transposed convolution, 2x2 kernel, stride 2, joined to its skip;
    (B, H, W, C) and (B, H', W', S) -> (B, H', W', C' + S).

    ``kernels`` has shape (C, C', 2, 2). Input pixel (i, j) writes output
    pixel (2i + a, 2j + c) through tap (a, c) alone, so the forward is one
    GEMM, (rows × C) @ (C × 4C') with the kernel's C-order reshape as the
    operand, whose columns (d, a, c) are moved to their output pixels by one
    reshape and transpose. The backward is two GEMMs, each over the output
    gradient gathered into a contiguous (4C' × rows): ``k4 @ gt`` for the
    input and ``gt @ x_rows`` for the kernel. Each product keeps the operand
    order and orientation ``np.einsum(..., optimize=True)`` (numpy 2.4) uses
    for the same sum, so the float32 results equal einsum's bit for bit;
    OpenBLAS rounds the other orientations differently on some shapes.

    The (2H, 2W) output is cropped to the skip's grid, at most that (an odd
    side was pooled to a partial window), and the skip follows it on the
    channel axis. The cropped cells get zero gradient, and the skip its own
    channels. An optional (B, H', W') bool ``mask`` zeroes the first C'
    channels on the cells it leaves unset, and their gradient with it. A
    zero-channel skip (B, 2H, 2W, 0) gives the plain transposed convolution.
    """
    xd = x.data
    B, H, W, C = xd.shape
    Ci, Co, kh, kw = kernels.data.shape
    if (kh, kw) != (2, 2):
        raise ValueError("deconv2 kernels must be 2x2")
    if Ci != C:
        raise ValueError(f"deconv2 channel mismatch: input has {C}, kernels expect {Ci}")
    Ho, Wo = skip.data.shape[1:3]
    keep = None if mask is None else mask[..., None]

    x_rows = xd.reshape(B * H * W, C)
    k4 = kernels.data.reshape(C, 4 * Co)
    out = (x_rows @ k4).reshape(B, H, W, Co, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(B, 2 * H, 2 * W, Co)
    out = out[:, :Ho, :Wo]
    if keep is not None:
        out = out * keep
    out = np.concatenate([out, skip.data], axis=3)

    def backward(grad):
        ad._accumulate(skip, grad[..., Co:])
        grad = grad[..., :Co]
        if keep is not None:
            grad = grad * keep
        if (Ho, Wo) != (2 * H, 2 * W):
            full = np.zeros((B, 2 * H, 2 * W, Co), dtype=grad.dtype)
            full[:, :Ho, :Wo] = grad
            grad = full
        g6 = grad.reshape(B, H, 2, W, 2, Co)
        gt = g6.transpose(5, 2, 4, 0, 1, 3).reshape(4 * Co, B * H * W)  # rows (d, a, c)
        ad._accumulate(x, (k4 @ gt).reshape(C, B, H, W).transpose(1, 2, 3, 0))
        gt = g6.transpose(2, 4, 5, 0, 1, 3).reshape(4 * Co, B * H * W)  # rows (a, c, d)
        ad._accumulate(kernels, (gt @ x_rows).reshape(2, 2, Co, C).transpose(3, 2, 0, 1))

    return ad._node(out, (x, kernels, skip), backward)


# ---------------------------------------------------------------------------
# batch normalization + ReLU

BN_MOMENTUM = 0.1  # weight of the newest batch in the running statistics
BN_EPS = 1e-5


def bn_relu(
    y: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var, training: bool, mask=None
) -> Tensor:
    """ReLU(batch norm(y)) over the channels (last axis) of (B, H, W, C), one node.

    An optional (B, H, W) bool ``mask`` marks the real cells of a padded
    batch; without one every cell is real. Training takes the mean and
    biased variance over the n real cells, each as one GEMV of the mask's
    0/1 row with the (B·H·W × C) cells, and moves the running statistics
    toward them, in place. Eval folds the running statistics into one
    per-channel scale and shift. Cells off the mask come out zero and get
    zero gradient: to the next 3x3 conv they read like its zero ring, and to
    a max-pool window of ReLU outputs like a cell that is not there. The
    backward is the closed form of Ioffe & Szegedy (2015): with g the output
    gradient passed through the ReLU and x̂ the normalized input,
    dy = γ/σ · (g - Σg/n - x̂ · Σ(g·x̂)/n) in training, and dy = γ/σ · g in
    eval, where the statistics are constants.
    """
    yd = y.data
    axes = (0, 1, 2)
    # No mask, no multiply: an all-True one cost +0.11 ms per batch-1 paper-dims segmentation pass.
    keep = None if mask is None else mask[..., None]
    if training:
        C = yd.shape[-1]
        w = np.ones(yd.size // C, yd.dtype) if mask is None else mask.reshape(-1).astype(yd.dtype)
        n = int(np.count_nonzero(w))
        mu = (w @ yd.reshape(-1, C)) / n
        xhat = yd - mu
        var = (w @ (xhat * xhat).reshape(-1, C)) / n
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
    if keep is not None:
        out *= keep

    def backward(grad):
        g = grad * (out > 0.0)  # zero on masked cells, whose output is zero
        xh = (yd - mu) * inv if xhat is None else xhat
        dbeta = g.sum(axis=axes)
        dgamma = (g * xh).sum(axis=axes)
        ad._accumulate(gamma, dgamma)
        ad._accumulate(beta, dbeta)
        if training:
            g -= dbeta / n
            g -= xh * (dgamma / n)
            if keep is not None:
                g *= keep
        g *= gamma.data * inv
        ad._accumulate(y, g)

    return ad._node(out, (y, gamma, beta), backward)


def conv_bn_relu(
    x: Tensor, kernels: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var, training: bool, mask=None
) -> Tensor:
    """Conv module of the segmentation net: 3x3 ``conv2d``, then ``bn_relu``.

    Channels-last (B, H, W, C) -> (B, H, W, C'); ``kernels`` is (C', C, 3, 3)
    and ``mask`` the optional (B, H, W) real-cell flags ``bn_relu`` takes.
    """
    return bn_relu(conv2d(x, kernels), gamma, beta, running_mean, running_var, training, mask)


# ---------------------------------------------------------------------------
# affine / loss


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis, one node: (..., A) @ (A, C) + (C,) -> (..., C)."""
    xd = x.data
    if xd.shape[-1] != w.data.shape[0]:
        raise ValueError(f"linear inner dims differ: input {xd.shape[-1]}, weight {w.data.shape}")
    flat = xd.reshape(-1, xd.shape[-1])
    out = flat @ w.data + b.data

    def backward(grad):
        g = grad.reshape(-1, grad.shape[-1])
        ad._accumulate(x, (g @ w.data.T).reshape(xd.shape))
        ad._accumulate(w, flat.T @ g)
        ad._accumulate(b, g.sum(axis=0))

    return ad._node(out.reshape(xd.shape[:-1] + out.shape[1:]), (x, w, b), backward)


def weighted_cross_entropy(logits: Tensor, targets, weights, mask=None) -> Tensor:
    """Mean over unmasked cells of ``weights[target] * -log softmax(logits)[target]``.

    ``logits`` is (..., n_classes), one row of class scores per cell;
    ``targets`` holds integer class ids and ``mask`` an optional boolean
    keep-flag, each of the logits' leading shape; ``weights`` holds one
    positive weight per class (``ModelConfig`` checks the model's). The loss
    has the logits' dtype. The log-sum-exp subtracts each row's maximum
    first, so ``exp`` only sees values <= 0 and cannot overflow in float32.
    """
    lead = logits.data.shape[:-1]
    targets = np.asarray(targets, dtype=np.int64)
    keep = np.ones(lead, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if targets.shape != lead or keep.shape != lead:
        raise ValueError(f"targets {targets.shape} and mask {keep.shape} must have shape {lead}")
    weights = np.asarray(weights, dtype=logits.data.dtype)
    sel = np.flatnonzero(keep)
    if sel.size == 0:
        raise ValueError("weighted_cross_entropy: all cells are masked")

    rows = logits.data.reshape(-1, logits.data.shape[-1])
    z = rows[sel]
    t = targets.reshape(-1)[sel]
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    logp_t = z[np.arange(sel.size), t] - lse
    w_t = weights[t]
    loss = (-w_t * logp_t).mean()

    def backward(grad):
        p = np.exp(z - lse[:, None])
        p[np.arange(sel.size), t] -= 1.0
        p *= w_t[:, None] * (grad / sel.size)
        g = np.zeros_like(rows)
        g[sel] = p
        ad._accumulate(logits, g.reshape(logits.data.shape))

    return ad._node(loss, (logits,), backward)


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
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

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
mask to the 3x3 convolution, which computes the real cells alone, and to
batch norm, which takes its statistics over the real cells and zeroes the
others.

The two hot kernels are shaped for BLAS. The LSTM is one time-major scan
that advances both directions, which share each step's numpy calls; every
step's embedding row is gathered from the table in scan order and projected
in one GEMM per direction before the scan, straight into the gate array. A
step makes one recurrent
product for both directions, against the (2, H, 4H) buffer a model keeps
both ``w_hh`` in, and BPTT one against its transpose; a call that builds no
graph keeps no BPTT history. The 3x3 convolution is one GEMM per product
(output, kernel gradient, input gradient) over the real pixels as rows, with
no padding or padding-ring rows (submanifold convolution, Graham & van der
Maaten 2017). ``Sites`` indexes a level's real pixels and each one's nine
neighbours once per batch, with one zero row standing for every neighbour
off the mask or on the ring; gathering a neighbourhood or spreading a
product back to it is a ``take`` through that index. Without a mask the
index lists every pixel and the arithmetic is the dense convolution's.
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
    GEMM before the scan, written straight into its (L·B × 4H) strided view
    of the (L, B, 2, 4H) gate array, to which the bias is then added. A step
    runs one recurrent product for both directions, (2, B, H) @ (2, H, 4H)
    into one (2, B, 4H) buffer, which numpy hands to BLAS as the two
    per-direction GEMMs; the (2, H, 4H) operand is the buffer both ``w_hh``
    are views of when a model holds them so (``stacked_pair``). Then the
    gate arithmetic runs once for both: tanh of the g slot, then the
    logistic function over the whole gate row.
    A float32 preactivation below about -88 overflows ``exp`` to inf, whose
    logistic value 1 / (1 + inf) = 0 is the exact limit.

    When the call builds no graph (under ``no_grad``, or when no input needs
    a gradient), the gathered inputs are freed and the scan keeps no history
    for BPTT (``_scan_ahead``): only the states ``hs`` and the gate
    projection are per-step arrays, and the rest lives in fixed scratch
    buffers. Both loops do the same arithmetic,
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
    # gates[t, b, d]: step t's gates of sequence b in direction d. Each
    # direction's (L·B × 4H) projection is a strided view that BLAS writes in
    # place, and at B = 1 each step's (2, B, 4H) view is contiguous.
    gates = np.empty((L, B, 2, 4 * H), dtype=dt)
    for d, (w_ih, _, b) in enumerate(weights):
        projected = gates.reshape(L * B, 2, 4 * H)[:, d]
        np.matmul(xs[d].reshape(L * B, E), w_ih.data, out=projected)
        projected += b.data
    w_hh = stacked_pair(fwd[1].data, bwd[1].data)  # (2, H, 4H)
    hs = np.zeros((L + 1, 2, B, H), dtype=dt)  # hs[t]: the states entering step t
    if not ad._keeps_graph(parents):
        del xs  # only BPTT reads the inputs again
        _scan_ahead(gates, w_hh, hs)
        return Tensor(_outputs(hs, order, valid))
    cs = np.zeros((L + 1, 2, B, H), dtype=dt)  # cs[t]: the cells entering step t
    tgs, tcs = np.empty((2, L, 2, B, H), dtype=dt)  # tanh of the g slot and of the cell
    z, ig = np.empty((2, B, 4 * H), dtype=dt), np.empty((2, B, H), dtype=dt)
    with np.errstate(over="ignore"):
        for t in range(L):
            # z becomes i, f, σ(g), o, and is kept as step t's gates; it is
            # computed in a contiguous buffer as the step's views are strided.
            np.matmul(hs[t], w_hh, out=z)
            z += gates[t].swapaxes(0, 1)
            np.tanh(z[..., 2 * H : 3 * H], out=tgs[t])
            _sigmoid_(z)
            np.multiply(z[..., H : 2 * H], cs[t], out=cs[t + 1])
            np.multiply(z[..., :H], tgs[t], out=ig)
            cs[t + 1] += ig
            np.tanh(cs[t + 1], out=tcs[t])
            np.multiply(z[..., 3 * H :], tcs[t], out=hs[t + 1])
            gates[t].swapaxes(0, 1)[...] = z

    def backward(grad):
        i, f, _, o = gates.reshape(L, B, 2, 4, H).transpose(3, 0, 2, 1, 4)  # each (L, 2, B, H)
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
    L, B, _, H4 = gates.shape
    H = H4 // 4
    z, rec = np.empty((2, 2, B, H4), dtype=gates.dtype)
    pair = np.zeros((2, B, 2 * H), dtype=gates.dtype)  # [tanh(g) | c], the cell starting at zero
    prod, tc = np.empty_like(pair), np.empty((2, B, H), dtype=gates.dtype)
    z_if, z_g, z_o = z[..., : 2 * H], z[..., 2 * H : 3 * H], z[..., 3 * H :]
    tg, c = pair[..., :H], pair[..., H:]
    ig, fc = prod[..., :H], prod[..., H:]
    h, g = list(hs), list(gates.swapaxes(1, 2))
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


# Rows of a wide input gathered at once: a gather copies its real pixels'
# rows for one GEMM, so a whole (n × C) copy would hold a second feature image.
_GATHER_ELEMENTS = 1 << 16


class Sites:
    """The pixels a 3x3 conv computes on a (B, H, W) grid, and each one's
    nine neighbours, as row indices.

    ``mask`` is a (B, H, W) bool array of the real pixels, or None for every
    pixel. ``real`` holds the flat indices of the n real pixels (None: all
    of them, in order). ``nbr`` (n, 9) gives, in column 3a + c, the row of
    the neighbour at offset (a-1, c-1) among those n rows followed by one
    zero row: a neighbour off the mask or on the zero ring reads row n.

    Built once per U-Net level and batch (``pooled`` gives the next level's)
    and shared by the level's convs, forward and backward.
    """

    def __init__(self, shape, mask=None):
        B, H, W = self.shape = tuple(shape)
        self.mask = mask
        self.real = None if mask is None else np.flatnonzero(mask)
        self.n = B * H * W if mask is None else self.real.size
        pos = np.full((B, H + 2, W + 2), self.n, dtype=np.intp)  # each pixel's row; the ring reads n
        inner = pos[:, 1:-1, 1:-1]
        if mask is None:
            inner[...] = np.arange(self.n).reshape(B, H, W)
        else:
            inner[mask] = np.arange(self.n)
        # Axes (b, i, j, a, c); a and c step like i and j.
        win = as_strided(pos, (B, H, W, 3, 3), pos.strides + pos.strides[1:], writeable=False)
        self.nbr = (win if mask is None else win[mask]).reshape(self.n, 9)

    def pooled(self) -> "Sites":
        """The sites of the 2x2 max-pooled grid: a window is real if any of its cells is."""
        B, H, W = self.shape
        return Sites((B, (H + 1) // 2, (W + 1) // 2), None if self.mask is None else window_max(self.mask))

    def parts(self, width: int) -> list[slice]:
        """Slices over the n rows: one for all of them without a mask, else
        runs short enough that a run of ``width`` values per row holds at most
        ``_GATHER_ELEMENTS`` values."""
        step = max(1, self.n if self.real is None else _GATHER_ELEMENTS // width)
        return [slice(start, min(start + step, self.n)) for start in range(0, self.n, step)]

    def rows(self, img: np.ndarray, part: slice) -> np.ndarray:
        """The (rows × C) rows of ``img`` (B, H, W, C) at ``part`` of the real
        pixels: a view without a mask, else a gathered copy."""
        flat = img.reshape(-1, img.shape[-1])
        return flat[part] if self.real is None else flat.take(self.real[part], axis=0)

    def stack(self, img: np.ndarray) -> np.ndarray:
        """(B, H, W, C) -> (n × 9C): each real pixel's 3x3 neighbourhood.

        Column block 3a + c holds the neighbour at offset (a-1, c-1), zero
        off the mask and on the ring. The real rows are copied once, above a
        zero row, and all nine blocks are read through ``nbr`` in one take.
        """
        C = img.shape[-1]
        rows = np.empty((self.n + 1, C), dtype=img.dtype)
        for part in self.parts(C):
            rows[part] = self.rows(img, part)
        rows[-1] = 0.0
        return rows.take(self.nbr, axis=0, mode="clip").reshape(self.n, 9 * C)

    def spread(self, blocks: np.ndarray) -> np.ndarray:
        """Adjoint of ``stack``: (n + 1, 9C) -> (n × C), the last row zero.

        Each real pixel adds up column block 3a + c of the row of its
        neighbour at offset (1-a, 1-c), in block order: nine takes through
        a per-block index into a block-sized buffer, eight in-place adds.
        Each level's one kn2row conv spreads once, so the index is not kept.
        """
        # Row 9r + u of the (9(n + 1) × C) blocks is block u of row r.
        index = np.ascontiguousarray((self.nbr[:, ::-1] * 9 + np.arange(9)).T)
        flat = blocks.reshape(-1, blocks.shape[1] // 9)
        out = flat.take(index[0], axis=0, mode="clip")
        part = np.empty_like(out)
        for taps in index[1:]:
            out += flat.take(taps, axis=0, out=part, mode="clip")
        return out

    def grid(self, rows_of, width: int, dtype) -> np.ndarray:
        """The (B, H, W, width) image whose real pixels at each of
        ``parts(width)`` hold ``rows_of(part)``, zero off the mask; without a
        mask, the one product reshaped."""
        if self.real is None:
            return rows_of(slice(0, self.n)).reshape(*self.shape, width)
        out = np.zeros((self.mask.size, width), dtype=dtype)
        for part in self.parts(width):
            out[self.real[part]] = rows_of(part)
        return out.reshape(*self.shape, width)


def _sites(shape, mask) -> Sites:
    """A conv's ``mask`` argument as ``Sites`` of the (B, H, W) grid ``shape``."""
    sites = mask if isinstance(mask, Sites) else Sites(shape, mask)
    if sites.shape != tuple(shape):
        raise ValueError(f"conv2d mask is for a {sites.shape} grid, the input is {tuple(shape)}")
    return sites


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


def conv2d(x: Tensor, kernels: Tensor, mask=None) -> Tensor:
    """3x3 same-padded convolution (cross-correlation); (B, H, W, C) -> (B, H, W, C').

    ``kernels`` has shape (C', C, 3, 3). ``mask`` marks the real pixels of a
    padded batch: a (B, H, W) bool array, or the ``Sites`` built from one,
    which the model builds once per level; None means every pixel is real.
    Each product is one GEMM over the n real pixels as rows, with the nine
    taps stacked on the narrower side:

    - C <= C' (im2col): out = ``stack(x) @ k9``, (n × 9C) @ (9C × C').
    - C > C' (kn2row): ``x_real @ k_revᵀ``, (n × C) @ (C × 9C') with the
      taps reversed, gives each pixel's contribution to its nine neighbours,
      and ``spread`` gathers and adds them at their offsets.

    Off the mask the output is zero, and the input gradient too. That is
    exact for the U-Net, where an input pixel off the mask is zero (padded
    features, and BN-ReLU and ``deconv2`` outputs, are zeroed there), so it
    adds nothing that a zero row would not; an output pixel off the mask is
    zeroed by the BN-ReLU after it, which passes it no gradient; and an
    input gradient off the mask is never read. Without a mask the index
    lists every pixel, and the arithmetic is the dense convolution's. With
    one, a wide input's real rows are gathered, and results scattered to
    the grid, in runs of at most ``_GATHER_ELEMENTS`` values
    (``Sites.parts``), so no second copy of a wide image is held.

    The rule follows the kernel's shape (``_uses_im2col``). Stacking the
    narrower side keeps the forward's stacked array and GEMM dimension at
    9·min(C, C'): the first U-Net conv (402 -> 32) reads the pair-feature
    rows in place instead of copying them nine times over, and the convs
    that widen the channels copy their narrow input rather than add up a
    wide output.

    Both forward operands, k9 and k_revᵀ, are transposed views of
    (C' × 9C) and (9C' × C) arrays, which a kernel held in
    ``kernel_storage`` hands over without a copy. That orientation is the
    faster one at training's row counts. At batch 1 a contiguous (9C × C')
    operand is a little faster, but OpenBLAS sums the two orientations in
    different orders on some small shapes, so switching would change a
    trained model's float32 outputs.

    The backward is the same on both sides. The output gradient is stacked,
    ``g9 = stack(dOut)`` (n × 9C'); block u of a pixel's row is the
    neighbour whose tap 8 - u reads that pixel, so the kernel gradient
    ``x_realᵀ @ g9`` comes out with its taps reversed and the input gradient
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
    sites = _sites((B, H, W), mask)

    if _uses_im2col(kernels.data):
        x9, k9 = sites.stack(xd), _im2col_rows(kernels.data).T
        out = sites.grid(lambda part: x9[part] @ k9, Co, xd.dtype)
    else:
        blocks = np.empty((sites.n + 1, 9 * Co), dtype=xd.dtype)
        for part in sites.parts(C):
            np.matmul(sites.rows(xd, part), _reversed_taps(kernels.data).T, out=blocks[part])
        blocks[-1] = 0.0
        spread = sites.spread(blocks)
        out = sites.grid(lambda part: spread[part], Co, xd.dtype)

    def backward(grad):
        g9 = sites.stack(grad)
        dk = np.zeros((C, 9 * Co), dtype=g9.dtype)
        for part in sites.parts(C):
            dk += sites.rows(xd, part).T @ g9[part]
        ad._accumulate(kernels, kernel_storage(dk.reshape(C, 3, 3, Co)[:, ::-1, ::-1].transpose(3, 0, 1, 2)))
        taps = _reversed_taps(kernels.data)
        ad._accumulate(x, sites.grid(lambda part: g9[part] @ taps, C, g9.dtype))

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
    and ``mask`` the optional (B, H, W) real-cell flags, or the ``Sites``
    built from them: the conv computes the real cells alone, and ``bn_relu``
    takes the flags.
    """
    sites = _sites(x.data.shape[:3], mask)
    return bn_relu(conv2d(x, kernels, sites), gamma, beta, running_mean, running_var, training, sites.mask)


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

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
table. A U-Net activation is kept as rows, from the pair features to the
logits: one row per real pixel of its level's (B, H, W) grid, (n × C),
listed by the ``Sites`` the tensor carries (``Tensor.sites``). Padding is
neither stored nor computed, so no mask travels with the data, and the
final logits are scattered to the (B, H, W, C) image once (``to_grid``).
A tensor without sites is a dense channels-last (B, H, W, C) image, whose
rows are all its pixels in order; the spatial ops take either and give back
the same kind. Images have any size: pooling gives an odd side a partial
last window, and a transposed convolution crops its output to the grid of
the skip it joins.

The two hot kernels are shaped for BLAS. The LSTM is one time-major scan
that advances both directions, which share each step's numpy calls. Before
the scan, each direction projects the embedding row of each distinct id in
the batch once, in one GEMM, and one ``take`` gathers those gate rows in
scan order, so every step's gates are one contiguous block. A step makes one
recurrent product for both directions, against the (2, H, 4H) buffer a model
keeps both ``w_hh`` in, and BPTT one against a contiguous copy of its
transpose; a call that builds no graph keeps no BPTT history.

The 3x3 convolution is one GEMM per product (output, kernel gradient,
input gradient) over the rows, and a neighbour off the mask reads like the
zero ring (submanifold convolution, Graham & van der Maaten 2017; the whole
network runs on the active sites, as in Graham, Engelcke & van der Maaten
2018). ``Sites`` indexes a level's nine neighbours once per batch, with one
zero row for every neighbour off the mask or on the ring, and the 2x2
windows that join the level to the one below. Gathering a neighbourhood or
a window, moving a transposed convolution's taps to their pixels, and
spreading a product back are each a ``take`` through one of those indices.
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

    One time-major scan advances both directions. Each sequence is scanned
    in its own order, position t forward and ``length - 1 - t`` backward, so
    padding trails the real steps in both. Each direction projects the
    embedding rows of the batch's U distinct ids in one (U × E) @ (E × 4H)
    GEMM plus the bias, and one ``take`` gathers them in scan order into the
    (L, 2, B, 4H) gates, so each step's (2, B, 4H) block is contiguous at
    any B. A step adds one recurrent product for both directions,
    (2, B, H) @ (2, H, 4H), which numpy hands to BLAS as the two
    per-direction GEMMs, into its block; the (2, H, 4H) operand is the
    buffer both ``w_hh`` are views of when a model holds them so
    (``stacked_pair``). The gate arithmetic then runs there once for both
    directions: tanh of the g slot, then the logistic function over the
    whole gate row. A float32 preactivation below about -88 overflows
    ``exp`` to inf, whose logistic value 1 / (1 + inf) = 0 is the exact
    limit.

    When the call builds no graph (under ``no_grad``, or when no input needs
    a gradient), the distinct rows are freed and the scan keeps no history
    for BPTT (``_scan_ahead``): only the states ``hs`` and the gates are
    per-step arrays, and the rest lives in fixed scratch buffers. Both loops
    do the same arithmetic, so their outputs are bitwise equal.

    Padded steps never feed a real output; their outputs are zeroed after
    the scan and their BPTT gradients are exact zeros, so a padded batch
    gives exactly the per-example results. The scan is one graph node: BPTT
    runs the shared loop backwards, storing each step's ``dz``, with one
    product per step against a contiguous copy of the stacked ``w_hh``
    transposed. Each direction's ``dx``, ``dW_ih``, ``dW_hh`` and ``db`` are
    then single GEMMs over every position, its inputs gathered again from
    the distinct rows; both ``dx`` go into the table's rows with
    ``np.add.at``, which sums every occurrence of a repeated id.
    """
    ids = np.asarray(ids, dtype=np.int64)
    B, L = ids.shape
    vocab, E = table.data.shape
    distinct, inverse = np.unique(ids, return_inverse=True)  # sorted, so the range check reads its ends
    if distinct.size and (distinct[0] < 0 or distinct[-1] >= vocab):
        bad = distinct[0] if distinct[0] < 0 else distinct[-1]
        raise IndexError(f"embedding id {int(bad)} out of range for vocab of {vocab}")
    H, U = fwd[1].data.shape[0], distinct.size
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

    xu = table.data[distinct]  # (U, E), one row per distinct id
    # NumPy < 2 returns the inverse flat, so give it the ids' shape.
    scan = inverse.reshape(B, L)[rows, order]  # (2, L, B): the row of xu each scan step reads
    dt = xu.dtype
    projected = np.empty((2, U, 4 * H), dtype=dt)  # each direction's projection of each distinct id
    for d, (w_ih, _, b) in enumerate(weights):
        np.matmul(xu, w_ih.data, out=projected[d])
        projected[d] += b.data
    # gates[t, d, b]: step t's gates of sequence b in direction d.
    gates = projected.reshape(2 * U, 4 * H).take(scan.transpose(1, 0, 2) + U * dirs[:, None], axis=0)
    del projected
    w_hh = stacked_pair(fwd[1].data, bwd[1].data)  # (2, H, 4H)
    hs = np.zeros((L + 1, 2, B, H), dtype=dt)  # hs[t]: the states entering step t
    if not ad._keeps_graph(parents):
        del xu  # only BPTT reads the inputs again
        _scan_ahead(gates, w_hh, hs)
        return Tensor(_outputs(hs, order, valid))
    cs = np.zeros((L + 1, 2, B, H), dtype=dt)  # cs[t]: the cells entering step t
    tgs, tcs = np.empty((2, L, 2, B, H), dtype=dt)  # tanh of the g slot and of the cell
    rec, ig = np.empty((2, B, 4 * H), dtype=dt), np.empty((2, B, H), dtype=dt)
    with np.errstate(over="ignore"):
        for t in range(L):
            z = gates[t]  # becomes i, f, σ(g), o in place: step t's gates
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
        i, f, _, o = gates.reshape(L, 2, B, 4, H).transpose(3, 0, 1, 2, 4)  # each (L, 2, B, H)
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
        w_hh_t = np.ascontiguousarray(w_hh.transpose(0, 2, 1))  # (2, 4H, H)
        for t in range(L - 1, -1, -1):
            dh += dout[t]
            dc += dh * dc_from_h[t]
            np.multiply(fac[t, ..., :3, :], dc[:, :, None], out=dz[:, t, :, :3])
            np.multiply(fac[t, ..., 3, :], dh, out=dz[:, t, :, 3])
            np.matmul(dz[:, t].reshape(2, B, 4 * H), w_hh_t, out=dh)
            dc *= f[t]
        xs = xu[scan]  # (2, L, B, E), each direction's inputs in its scan order
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
    """``lstm``'s scan keeping nothing for BPTT: fills ``hs`` from ``gates``.

    ``gates`` is read, one contiguous (2, B, 4H) block a step, and left as
    it is. The pre-activations z (the recurrent product, to which the step's
    block is added), tanh(c) and the pair [tanh(g) | c] are fixed buffers
    whose views are all built before the loop. The cell update
    f·c + i·tanh(g) is one product of z's [i | f] with the pair and one sum
    of its halves into the pair's c: 11 numpy calls a step, each value the
    graph loop's bit for bit.
    """
    L, _, B, H4 = gates.shape
    H = H4 // 4
    z = np.empty((2, B, H4), dtype=gates.dtype)
    pair = np.zeros((2, B, 2 * H), dtype=gates.dtype)  # [tanh(g) | c], the cell starting at zero
    prod, tc = np.empty_like(pair), np.empty((2, B, H), dtype=gates.dtype)
    z_if, z_g, z_o = z[..., : 2 * H], z[..., 2 * H : 3 * H], z[..., 3 * H :]
    tg, c = pair[..., :H], pair[..., H:]
    ig, fc = prod[..., :H], prod[..., H:]
    h, g = list(hs), list(gates)
    with np.errstate(over="ignore"):
        for t in range(L):
            np.matmul(h[t], w_hh, out=z)
            z += g[t]
            np.tanh(z_g, out=tg)
            _sigmoid_(z)
            np.multiply(z_if, pair, out=prod)
            np.add(ig, fc, out=c)
            np.tanh(c, out=tc)
            np.multiply(z_o, tc, out=h[t + 1])


# ---------------------------------------------------------------------------
# spatial ops on the rows of a level's real pixels


class Sites:
    """The real pixels of a U-Net level's (B, H, W) grid, the rows of its
    (n × C) activations.

    ``mask`` is a (B, H, W) bool array of the real pixels, or None for every
    pixel. ``real`` holds the flat indices of the n real pixels (None: all
    of them), in row-major (b, i, j) order, the order of the rows. ``nbr``
    (n, 9) gives, in column 3a + c, the row of the neighbour at offset
    (a-1, c-1) among those n rows followed by one zero row: a neighbour off
    the mask or on the zero ring reads row n.

    ``pooled`` gives the next level down, built once and shared: a 2x2
    window is real if any of its cells is. Its two tables map rows between
    the levels:

    - ``cells`` (4 × n'): row s holds the row of cell s of each window, in
      row-major window order; the window's first real cell stands in for a
      cell that is off the mask or past an odd side, so a maximum over the
      four is a maximum over the cells there are.
    - ``slots`` (n,): s·n' + w for the pixel in cell s of window w, its
      place in the flattened ``cells``.

    Built once per U-Net level and batch and carried by the level's tensors
    (``Tensor.sites``), forward and backward.
    """

    def __init__(self, shape, mask=None):
        B, H, W = self.shape = tuple(shape)
        self.mask = mask
        self.real = None if mask is None else np.flatnonzero(mask)
        self.n = B * H * W if mask is None else self.real.size
        self.cells = self.slots = self._pooled = None
        self._pos = pos = np.full((B, H + 2, W + 2), self.n, dtype=np.intp)  # each pixel's row; the ring reads n
        if mask is None:
            pos[:, 1:-1, 1:-1] = np.arange(self.n).reshape(B, H, W)
        else:
            pos[:, 1:-1, 1:-1][mask] = np.arange(self.n)
        # Axes (b, i, j, a, c); a and c step like i and j.
        win = np.ndarray((B, H, W, 3, 3), np.intp, pos, 0, pos.strides + pos.strides[1:])
        win.flags.writeable = False  # its windows overlap, and nbr may be a view of it
        self.nbr = (win if mask is None else win[mask]).reshape(self.n, 9)

    def pooled(self) -> "Sites":
        """The sites of the 2x2 max-pooled grid, with their ``cells`` and ``slots``."""
        if self._pooled is None:
            B, H, W = self.shape
            h, w = (H + 1) // 2, (W + 1) // 2
            # The ring past an odd side reads n, as a cell off the mask does.
            rows = self._pos[:, 1 : 2 * h + 1, 1 : 2 * w + 1]
            windows = rows.reshape(B, h, 2, w, 2).transpose(2, 4, 0, 1, 3).reshape(4, -1)
            present = windows < self.n
            coarse = Sites((B, h, w), None if self.mask is None else present.any(axis=0).reshape(B, h, w))
            if coarse.real is not None:
                windows, present = windows[:, coarse.real], present[:, coarse.real]
            coarse.cells = np.where(present, windows, windows.min(axis=0))
            coarse.slots = np.empty(self.n, dtype=np.intp)
            coarse.slots[windows[present]] = np.flatnonzero(present)
            self._pooled = coarse
        return self._pooled

    def stack(self, rows: np.ndarray) -> np.ndarray:
        """(n × C) -> (n × 9C): each real pixel's 3x3 neighbourhood.

        Column block 3a + c holds the neighbour at offset (a-1, c-1), zero
        off the mask and on the ring. The rows are copied once, above a
        zero row, and all nine blocks are read through ``nbr`` in one take.
        """
        padded = np.empty((self.n + 1, rows.shape[1]), dtype=rows.dtype)
        padded[:-1] = rows
        padded[-1] = 0.0
        return padded.take(self.nbr, axis=0, mode="clip").reshape(self.n, 9 * rows.shape[1])

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


def _rows(x: Tensor) -> tuple[np.ndarray, Sites]:
    """``x``'s (n × C) rows and their sites. A tensor without sites is a
    dense (B, H, W, C) image, whose rows are all its pixels in order."""
    if x.sites is None:
        B, H, W, C = x.data.shape
        return x.data.reshape(B * H * W, C), Sites((B, H, W))
    if x.data.shape[0] != x.sites.n:
        raise ValueError(f"{x.data.shape[0]} rows for {x.sites.n} sites")
    return x.data, x.sites


def _on(sites: Sites, dense: bool, rows: np.ndarray, parents, backward) -> Tensor:
    """The node of ``rows`` on ``sites``: as rows, or as the (B, H, W, C)
    image when the op was called on dense images."""
    if dense:
        return ad._node(rows.reshape(*sites.shape, rows.shape[-1]), parents, backward)
    out = ad._node(rows, parents, backward)
    out.sites = sites
    return out


def to_grid(x: Tensor) -> Tensor:
    """Rows on their sites -> the (B, H, W, C) image, zero off the mask; a
    dense image is returned as it is. The model scatters its logits once,
    at the end, so that ``data[b]`` is example b's grid."""
    sites = x.sites
    if sites is None:
        return x
    C = x.data.shape[1]
    if sites.real is None:
        out = x.data.reshape(*sites.shape, C)
    else:
        out = np.zeros((sites.mask.size, C), dtype=x.data.dtype)
        out[sites.real] = x.data
        out = out.reshape(*sites.shape, C)

    def backward(grad):
        g = grad.reshape(-1, C)
        ad._accumulate(x, g if sites.real is None else g[sites.real])

    return ad._node(out, (x,), backward)


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
    """3x3 same-padded convolution (cross-correlation) over a level's rows;
    (n × C) -> (n × C'), or (B, H, W, C) -> (B, H, W, C') on a dense image.

    ``kernels`` has shape (C', C, 3, 3). ``x`` holds one row per real pixel
    of its ``Sites``, and a neighbour off the mask reads like the zero ring
    (submanifold convolution). Each product is one GEMM over those rows,
    with the nine taps stacked on the narrower side:

    - C <= C' (im2col): out = ``stack(x) @ k9``, (n × 9C) @ (9C × C').
    - C > C' (kn2row): ``x @ k_revᵀ``, (n × C) @ (C × 9C') with the taps
      reversed, gives each pixel's contribution to its nine neighbours, and
      ``spread`` gathers and adds them at their offsets.

    The rows are the function's whole input and output, so in the U-Net
    every real cell gets what it gets on its example's own grid, up to float
    summation order. A dense image's rows are all its pixels, and the
    arithmetic is the dense convolution's.

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
    ``xᵀ @ g9`` comes out with its taps reversed and the input gradient is
    ``g9 @ _reversed_taps(k)``. The kernel gradient is handed back in
    ``kernel_storage``, the memory order of the model's own kernels.
    """
    xd, sites = _rows(x)
    C = xd.shape[1]
    Co, Ck, kh, kw = kernels.data.shape
    if (kh, kw) != (3, 3):
        raise ValueError("conv2d kernels must be 3x3")
    if Ck != C:
        raise ValueError(f"conv2d channel mismatch: input has {C}, kernels expect {Ck}")

    if _uses_im2col(kernels.data):
        out = sites.stack(xd) @ _im2col_rows(kernels.data).T
    else:
        blocks = np.empty((sites.n + 1, 9 * Co), dtype=xd.dtype)
        np.matmul(xd, _reversed_taps(kernels.data).T, out=blocks[:-1])
        blocks[-1] = 0.0
        out = sites.spread(blocks)

    def backward(grad):
        g9 = sites.stack(grad.reshape(-1, Co))
        dk = xd.T @ g9
        ad._accumulate(kernels, kernel_storage(dk.reshape(C, 3, 3, Co)[:, ::-1, ::-1].transpose(3, 0, 1, 2)))
        ad._accumulate(x, (g9 @ _reversed_taps(kernels.data)).reshape(x.data.shape))

    return _on(sites, x.sites is None, out, (x, kernels), backward)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2: rows of a level -> rows of ``pooled()``,
    or (B, H, W, C) -> (B, ceil(H/2), ceil(W/2), C) on a dense image.

    The four cells of every window are gathered through ``cells`` (4 × n')
    in one take, as four contiguous (n' × C) blocks, and reduced across
    them. On an odd side the last window holds one row or column only, and
    a padded batch's edge windows hold some padding; either way the missing
    cells repeat the window's first one, so the maximum is over the cells
    there are. Gradient routes to the first cell per window, in row-major
    window order, that equals the window's maximum.
    """
    xd, sites = _rows(x)
    coarse = sites.pooled()
    out = np.maximum.reduce(xd.take(coarse.cells, axis=0))

    def backward(grad):
        first = xd.take(coarse.cells, axis=0).argmax(axis=0)  # (n', C): each window's routed cell
        dx = np.zeros_like(xd)
        dx[coarse.cells[first, np.arange(coarse.n)[:, None]], np.arange(xd.shape[1])] = grad.reshape(out.shape)
        ad._accumulate(x, dx.reshape(x.data.shape))

    return _on(coarse, x.sites is None, out, (x,), backward)


def deconv2(x: Tensor, kernels: Tensor, skip: Tensor) -> Tensor:
    """Transposed convolution, 2x2 kernel, stride 2, joined to its skip:
    rows (n' × C) of a pooled level and (n × S) of the level above ->
    (n × (C' + S)) rows there; on dense images (B, H, W, C) and
    (B, H', W', S) -> (B, H', W', C' + S).

    ``kernels`` has shape (C, C', 2, 2), and ``x``'s level must be the
    skip's ``pooled()``. Input pixel (i, j) writes output pixel
    (2i + a, 2j + c) through tap (a, c) alone, so the forward is one GEMM,
    (n' × C) @ (C × 4C') with the kernel's C-order reshape as the operand,
    whose columns (d, a, c) go to the skip level's rows through ``slots``.
    The backward is two GEMMs, each over the output gradient gathered into
    a contiguous (4C' × n'): ``k4 @ gt`` for the input and ``gt @ x`` for
    the kernel. Each product keeps the operand order and orientation
    ``np.einsum(..., optimize=True)`` (numpy 2.4) uses for the same sum, so
    the float32 results equal einsum's bit for bit; OpenBLAS rounds the
    other orientations differently on some shapes.

    The skip level's grid crops the (2H, 2W) output: an odd side was pooled
    to a partial window, whose missing cells are never written and send no
    gradient back, and a padded batch's real cells take only their own
    window's taps. The skip follows on the channel axis and gets its own
    channels of the gradient. A zero-channel skip (B, 2H, 2W, 0) gives the
    plain transposed convolution.
    """
    sd, fine = _rows(skip)
    coarse = fine.pooled()
    xd, sites = _rows(x)
    if (sites.shape, sites.n) != (coarse.shape, coarse.n):
        raise ValueError(f"deconv2 input grid {sites.shape} is not the pooled skip grid {coarse.shape}")
    C = xd.shape[1]
    Ci, Co, kh, kw = kernels.data.shape
    if (kh, kw) != (2, 2):
        raise ValueError("deconv2 kernels must be 2x2")
    if Ci != C:
        raise ValueError(f"deconv2 channel mismatch: input has {C}, kernels expect {Ci}")

    k4 = kernels.data.reshape(C, 4 * Co)
    taps = (xd @ k4).reshape(coarse.n, Co, 4).transpose(2, 0, 1).reshape(4 * coarse.n, Co)  # rows s·n' + w
    out = np.concatenate([taps.take(coarse.slots, axis=0), sd], axis=1)

    def backward(grad):
        g = grad.reshape(out.shape)
        ad._accumulate(skip, g[:, Co:].reshape(skip.data.shape))
        g4 = np.zeros((4 * coarse.n, Co), dtype=g.dtype)
        g4[coarse.slots] = g[:, :Co]
        g4 = g4.reshape(4, coarse.n, Co)
        gt = g4.transpose(2, 0, 1).reshape(4 * Co, coarse.n)  # rows (d, a, c)
        ad._accumulate(x, (k4 @ gt).T.reshape(x.data.shape))
        gt = g4.transpose(0, 2, 1).reshape(4 * Co, coarse.n)  # rows (a, c, d)
        ad._accumulate(kernels, (gt @ xd).reshape(2, 2, Co, C).transpose(3, 2, 0, 1))

    return _on(fine, skip.sites is None, out, (x, kernels, skip), backward)


# ---------------------------------------------------------------------------
# batch normalization + ReLU

BN_MOMENTUM = 0.1  # weight of the newest batch in the running statistics
BN_EPS = 1e-5


def bn_relu(y: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var, training: bool) -> Tensor:
    """ReLU(batch norm(y)) over the channels (last axis) of rows, one node.

    ``y`` is a level's (n × C) rows, one per real pixel, or a dense image,
    whose pixels are all rows. Training takes the mean and biased variance
    over the n rows, each as one GEMV of a row of ones with the rows, and
    moves the running statistics toward them, in place. Eval folds the
    running statistics into one per-channel scale and shift. The backward
    is the closed form of Ioffe & Szegedy (2015): with g the output
    gradient passed through the ReLU and x̂ the normalized input,
    dy = γ/σ · (g - Σg/n - x̂ · Σ(g·x̂)/n) in training, and dy = γ/σ · g in
    eval, where the statistics are constants.
    """
    yd = y.data
    rows = yd.reshape(-1, yd.shape[-1])
    n = rows.shape[0]
    if training:
        ones = np.ones(n, yd.dtype)
        mu = (ones @ rows) / n
        xhat = rows - mu
        var = (ones @ (xhat * xhat)) / n
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
        out = rows * scale
        out += beta.data - mu * scale
        xhat = None  # formed in the backward, which eval mode seldom runs
    np.maximum(out, 0.0, out=out)

    def backward(grad):
        g = grad.reshape(out.shape) * (out > 0.0)
        xh = (rows - mu) * inv if xhat is None else xhat
        dbeta = g.sum(axis=0)
        dgamma = (g * xh).sum(axis=0)
        ad._accumulate(gamma, dgamma)
        ad._accumulate(beta, dbeta)
        if training:
            g -= dbeta / n
            g -= xh * (dgamma / n)
        g *= gamma.data * inv
        ad._accumulate(y, g.reshape(yd.shape))

    node = ad._node(out.reshape(yd.shape), (y, gamma, beta), backward)
    node.sites = y.sites
    return node


def conv_bn_relu(
    x: Tensor, kernels: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var, training: bool
) -> Tensor:
    """Conv module of the segmentation net: 3x3 ``conv2d``, then ``bn_relu``,
    on a level's (n × C) rows -> (n × C'); ``kernels`` is (C', C, 3, 3)."""
    return bn_relu(conv2d(x, kernels), gamma, beta, running_mean, running_var, training)


# ---------------------------------------------------------------------------
# affine / loss


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis, one node: (..., A) @ (A, C) + (C,) -> (..., C).
    Rows stay on their sites."""
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

    node = ad._node(out.reshape(xd.shape[:-1] + out.shape[1:]), (x, w, b), backward)
    node.sites = x.sites
    return node


def weighted_cross_entropy(logits: Tensor, targets, weights, mask=None) -> Tensor:
    """Mean over unmasked cells of ``weights[target] * -log softmax(logits)[target]``.

    ``logits`` is (..., n_classes), one row of class scores per cell: the
    model's (n × 3) logit rows, or an image; ``targets`` holds integer class
    ids and ``mask`` an optional boolean keep-flag, each of the logits'
    leading shape; ``weights`` holds one positive weight per class
    (``ModelConfig`` checks the model's). The loss has the logits' dtype.
    The log-sum-exp subtracts each row's maximum first, so ``exp`` only sees
    values <= 0 and cannot overflow in float32.
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

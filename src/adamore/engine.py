"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-d float64 numpy array. Operations append records to an
ambient :class:`Tape`; :func:`backward` replays the records in exact reverse
order, so no topological sort is needed. An op is recorded only when one of
its inputs needs a gradient, and its backward rule forms only the products
for such inputs. Inside :func:`frozen`, the given parameters count as
constants, so a step differentiates only the groups it updates.

Graph products run through :func:`edge_sum` (weighted propagation),
:func:`pair_mlp`, the edge gate's hidden and output layers over row pairs,
and :func:`gather_rows` / :func:`scatter_rows`. Learned per-edge weights
enter them as dense vectors with exact gradients. Their index arguments are
:class:`Index` objects, which keep their CSR layouts for their lifetime and
sum each row in ascending edge order; the graph owns the ones every step
reuses. Every segment sum is one call of the kernel behind scipy's
csr @ dense on those layouts (:func:`_csr_matmul`), so no scipy matrix is
built. Work with one row per edge and a feature width runs in cache-sized
row blocks (:func:`gathered_pairs`) through buffers reused for every block,
so no edges x width array is formed.

Each model-level operation is one record, bit for bit the op chain it
stands for, and keeps only what its backward needs: :func:`linear` (a w + b)
and :func:`mixture`, :func:`residual_sum` and :func:`blend` (the weighted
sums of expert and channel outputs) nothing beyond their inputs, :func:`hop`
(one normalized propagation) the edge sum only when the degree term needs
a gradient and h * D^-1/2 only when the edge weights do, :func:`attention`
(GAT's coefficients) five columns of one entry per pair and the n sums.

A training session owns one tape and is single-threaded. Call
:func:`reset_tape` at the start of each optimization step; a tape is
differentiated once, and parameters are leaves that survive the reset.
The module also holds the one MLP type, Adam, and :func:`atomic_write`,
the writer of every output file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import _sparsetools
from scipy.special import expit

EPS = 1e-8
_NEG_INF = -1e30  # additive mask for excluded logits; finite on purpose

CHECKPOINT_HEADER = "ADAMORE-CKPT-1"


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names shapes and op."""


class NonFiniteError(FloatingPointError):
    """Raised when an operation produces NaN or Inf; names the operation."""


class Tensor:
    """Dense float64 matrix participating in the recording tape.

    Scalars are stored as 1x1, one-dimensional input as a column vector.
    ``grad`` is populated by :func:`backward` and always matches the value
    shape. Operations never mutate ``values`` in place.
    """

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ShapeError(f"Tensor expects at most 2 dimensions, got shape {arr.shape}")
        self.values = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def detach(self) -> "Tensor":
        """Constant copy of this tensor, cut off from the tape."""
        return Tensor(self.values.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class Tape:
    """Ordered operation records; backward traverses them in reverse, once."""

    records: list = field(default_factory=list)
    differentiated: bool = False

    def __len__(self) -> int:
        return len(self.records)


_current_tape = Tape()


def current_tape() -> Tape:
    return _current_tape


def reset_tape() -> Tape:
    """Drop all recorded operations and start a fresh tape."""
    global _current_tape
    _current_tape = Tape()
    return _current_tape


def _check_finite(values: np.ndarray, op: str) -> None:
    # every element is tested, so the screen is exact; isfinite does no
    # arithmetic, so the screen itself cannot overflow or warn
    if not np.isfinite(values).all():
        raise NonFiniteError(f"operation '{op}' produced non-finite values")


def _record(op: str, out: Tensor, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    _check_finite(out.values, op)
    out.requires_grad = any(t.requires_grad for t in inputs)
    if out.requires_grad:
        _current_tape.records.append((op, out, tuple(inputs), backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every requiring ancestor.

    Gradients of tensors that are not ancestors of ``loss`` are untouched.
    A second call on one tape would add every record's gradient again, so
    it raises RuntimeError instead; :func:`reset_tape` starts a new tape.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward expects a 1x1 loss, got shape {loss.shape}")
    if _current_tape.differentiated:
        raise RuntimeError("backward called twice on one tape; reset_tape() starts a new one")
    _current_tape.differentiated = True
    loss.grad = np.ones((1, 1))
    for op, out, inputs, backward_fn in reversed(_current_tape.records):
        g = out.grad
        if g is None:
            continue
        grads = backward_fn(g)
        for inp, gi in zip(inputs, grads):
            if gi is None or not inp.requires_grad:
                continue
            inp.grad = gi if inp.grad is None else inp.grad + gi


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


@contextmanager
def frozen(params: Sequence[Tensor]):
    """Treat ``params`` as constants for the duration of the block.

    Ops whose only differentiable inputs are frozen record nothing, and no
    backward rule forms a product for a frozen input, so its ``grad`` stays
    untouched. The flags are restored on exit, also when the block raises.
    """
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        # reversed, so a parameter listed twice gets its first saved flag
        for p, flag in zip(reversed(params), reversed(saved)):
            p.requires_grad = flag


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"operation '{op}' requires equal shapes, got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# elementwise and scalar ops

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.values + b.values)
    return _record("add", out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.values - b.values)
    return _record("sub", out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    av, bv = a.values, b.values
    out = Tensor(av * bv)
    need_a, need_b = a.requires_grad, b.requires_grad
    return _record("mul", out, (a, b), lambda g: (g * bv if need_a else None,
                                                  g * av if need_b else None))


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.values * c)
    return _record("scale", out, (a,), lambda g: (g * c,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.values + c)
    return _record("add_scalar", out, (a,), lambda g: (g,))


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"operation 'matmul' mismatch: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    out = Tensor(av @ bv)
    need_a, need_b = a.requires_grad, b.requires_grad
    return _record("matmul", out, (a, b), lambda g: (g @ bv.T if need_a else None,
                                                     av.T @ g if need_b else None))


def linear(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """a w + b for a 1 x d row b, the bias added in place: the values and
    gradients of ``add_row(matmul(a, w), b)`` in one record."""
    if a.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(f"operation 'linear' mismatch: {a.shape} @ {w.shape} + {b.shape}")
    av, wv = a.values, w.values
    out = av @ wv
    out += b.values
    need_a, need_w, need_b = a.requires_grad, w.requires_grad, b.requires_grad
    return _record("linear", Tensor(out), (a, w, b),
                   lambda g: (g @ wv.T if need_a else None, av.T @ g if need_w else None,
                              g.sum(axis=0, keepdims=True) if need_b else None))


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.values.T.copy())
    return _record("transpose", out, (a,), lambda g: (g.T,))


def frobenius(a: Tensor, b: Tensor) -> Tensor:
    """Frobenius inner product <A, B> = sum(A * B), a 1x1 tensor."""
    _same_shape(a, b, "frobenius")
    av, bv = a.values, b.values
    out = Tensor(np.sum(av * bv))
    need_a, need_b = a.requires_grad, b.requires_grad
    return _record("frobenius", out, (a, b), lambda g: (g[0, 0] * bv if need_a else None,
                                                        g[0, 0] * av if need_b else None))


# ---------------------------------------------------------------------------
# broadcasts, selections, concatenation

def add_row(a: Tensor, r: Tensor) -> Tensor:
    """Add a 1xd row vector to every row (bias add)."""
    if r.shape != (1, a.shape[1]):
        raise ShapeError(f"operation 'add_row' requires (1, {a.shape[1]}), got {r.shape}")
    out = Tensor(a.values + r.values)
    need_r = r.requires_grad
    return _record("add_row", out, (a, r),
                   lambda g: (g, g.sum(axis=0, keepdims=True) if need_r else None))


def mul_col(a: Tensor, v: Tensor) -> Tensor:
    """Broadcast an nx1 column across columns and multiply elementwise."""
    if v.shape != (a.shape[0], 1):
        raise ShapeError(f"operation 'mul_col' requires ({a.shape[0]}, 1), got {v.shape}")
    av, vv = a.values, v.values
    out = Tensor(av * vv)
    need_a, need_v = a.requires_grad, v.requires_grad
    return _record("mul_col", out, (a, v),
                   lambda g: (g * vv if need_a else None,
                              np.einsum("ij,ij->i", g, av)[:, None] if need_v else None))


def _layout(idx: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR layout (indptr, order, ones) of the n_rows x len(idx) 0/1 matrix
    that sums entries e into row idx[e]; the stable sort keeps each row's
    entries, and so its sums, in ascending e."""
    order = np.argsort(idx, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n_rows), out=indptr[1:])
    return indptr, order, np.ones(order.shape[0])


def _csr_matmul(indptr, cols, vals, n_cols: int, x: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """out + A x (out fresh zeros by default) for the CSR matrix A with row
    pointers ``indptr`` and entries ``cols`` < n_cols, ``vals``: scipy's
    csr @ dense kernel, bit for bit. It reads x unchecked, so its rows are
    checked here, and x as a C-contiguous copy where it is not one."""
    if x.shape[0] != n_cols:
        raise ShapeError(f"sparse product of a ({indptr.shape[0] - 1}, {n_cols}) matrix "
                         f"with an operand of shape {x.shape}")
    if out is None:
        out = np.zeros((indptr.shape[0] - 1, x.shape[1]))
    _sparsetools.csr_matvecs(out.shape[0], n_cols, x.shape[1], indptr, cols, vals,
                             x.ravel(), out.ravel())
    return out


class Index:
    """A read-only copy of an index array into ``n_rows`` rows, range-checked
    once. Its layouts are built on first use and kept for its lifetime, so
    an index every step reuses (a graph's edge endpoints) is laid out once.
    The sparse ops take an Index or a plain array, wrapped for one call."""

    def __init__(self, idx, n_rows: int):
        idx = np.array(idx, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
            raise IndexError(f"index out of range for {n_rows} rows")
        idx.setflags(write=False)
        self.idx, self.n_rows = idx, n_rows
        self._blocks: tuple[int, list] = (0, [])

    def __len__(self) -> int:
        return self.idx.shape[0]

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _layout(self.idx, self.n_rows)

    def blocks(self, step: int) -> list:
        """The :func:`_layout` of each block of ``step`` entries; kept for
        the last ``step`` asked for."""
        if self._blocks[0] != step:
            self._blocks = (step, [_layout(self.idx[lo:lo + step], self.n_rows)
                                   for lo in range(0, len(self), step)])
        return self._blocks[1]


def _as_index(idx, n_rows: int) -> Index:
    """``idx`` itself if it is an :class:`Index` into ``n_rows`` rows, else
    the plain array wrapped as one."""
    if not isinstance(idx, Index):
        return Index(idx, n_rows)
    if idx.n_rows != n_rows:
        raise ShapeError(f"index into {idx.n_rows} rows used where {n_rows} rows are expected")
    return idx


# bytes of one row-block buffer; a sweep of 128 KiB to 2 MiB on both benchmark
# graphs found 512 KiB (1024 rows of the 64-wide gate) at or near the best
_BLOCK_BYTES = 1 << 19


def block_rows(row_bytes: int) -> int:
    """Rows per block when one row holds ``row_bytes`` bytes."""
    return max(1, _BLOCK_BYTES // max(row_bytes, 1))


def gathered_pairs(x: np.ndarray, y: np.ndarray, xi, yi):
    """Yield (lo, hi, x[xi[lo:hi]], y[yi[lo:hi]]) over consecutive row blocks.

    ``x`` and ``y`` have equal widths; ``xi`` and ``yi`` index their rows
    (an :class:`Index` or a plain array). The two gathers land in buffers that
    every block reuses, so no len(xi)-row array is formed; a yielded block
    is overwritten by the next one.
    """
    xi, yi = _as_index(xi, x.shape[0]).idx, _as_index(yi, y.shape[0]).idx
    n, width = xi.shape[0], x.shape[1]
    step = block_rows(8 * width)
    bx, by = np.empty((min(step, n), width)), np.empty((min(step, n), width))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield (lo, hi, np.take(x, xi[lo:hi], axis=0, out=bx[:hi - lo], mode="clip"),
               np.take(y, yi[lo:hi], axis=0, out=by[:hi - lo], mode="clip"))


def _weighted_sum(rows: Index, cols: Index, wv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for A[rows[e], cols[e]] = wv[e], laid out by ``rows``: each row
    sums its entries in ascending e."""
    indptr, order, _ = rows.layout
    return _csr_matmul(indptr, cols.idx[order], wv[order], cols.n_rows, x)


def _edge_dots(g: np.ndarray, x: np.ndarray, dst: Index, src: Index) -> np.ndarray:
    """The per-edge dots <g[dst[e]], x[src[e]]> as a column, in row blocks."""
    out = np.empty((len(src), 1))
    for lo, hi, gd, xs in gathered_pairs(g, x, dst, src):
        np.einsum("ij,ij->i", gd, xs, out=out[lo:hi, 0])
    return out


def edge_sum(h: Tensor, w: Tensor, src, dst, n_rows: int) -> Tensor:
    """Weighted edge sum: row i is the sum of w[e] * h[src[e]] over dst[e] = i.

    One sparse product A h with A[dst[e], src[e]] = w[e], laid out by
    ``dst``; the backward is A^T g for ``h``, laid out by ``src``, and the
    per-edge dot <g[dst[e]], h[src[e]]> for ``w``.
    Both patterns sum in ascending edge order and the dot runs in row
    blocks, so values and gradients equal those of
    ``scatter_rows(mul_col(gather_rows(h, src), w), dst)`` bit for bit,
    without the edges x columns message matrix.
    """
    src, dst = _as_index(src, h.shape[0]), _as_index(dst, n_rows)
    m = len(src)
    if len(dst) != m or w.shape != (m, 1):
        raise ShapeError(f"operation 'edge_sum' needs {m} destinations and ({m}, 1) "
                         f"weights, got {len(dst)} and {w.shape}")
    hv, wv = h.values, w.values[:, 0]
    need_h, need_w = h.requires_grad, w.requires_grad
    return _record("edge_sum", Tensor(_weighted_sum(dst, src, wv, hv)), (h, w),
                   lambda g: (_weighted_sum(src, dst, wv, g) if need_h else None,
                              _edge_dots(g, hv, dst, src) if need_w else None))


def hop(h: Tensor, w: Tensor, inv_sqrt_deg: Tensor, inv_deg: Tensor, src, dst) -> Tensor:
    """One hop of D^-1/2 (W + I) D^-1/2, edge_sum(h * s, w) * s + h * d for the
    columns s = ``inv_sqrt_deg``, d = ``inv_deg``: one record for the five of
    ``add(mul_col(edge_sum(mul_col(h, s), w), s), mul_col(h, d))``. s and h
    are inputs twice, so their gradient terms come back in the chain's reverse
    order (outer s first, h * s before h * d) and every sum into them keeps
    its bits. The edge sum is kept only for s's gradient, h * s only for w's."""
    n = h.shape[0]
    src, dst = _as_index(src, n), _as_index(dst, n)
    m = len(src)
    if len(dst) != m or w.shape != (m, 1) or {inv_sqrt_deg.shape, inv_deg.shape} != {(n, 1)}:
        raise ShapeError(f"operation 'hop' needs {m} destinations, ({m}, 1) weights and "
                         f"({n}, 1) degree terms, got {len(dst)}, {w.shape}, "
                         f"{inv_sqrt_deg.shape} and {inv_deg.shape}")
    hv, wv, sv, dv = h.values, w.values[:, 0], inv_sqrt_deg.values, inv_deg.values
    need_h, need_w = h.requires_grad, w.requires_grad
    need_s, need_d = inv_sqrt_deg.requires_grad, inv_deg.requires_grad
    hs = hv * sv
    agg = _weighted_sum(dst, src, wv, hs)
    out = agg * sv
    out += hv * dv
    agg, hs = (agg if need_s else None), (hs if need_w else None)

    def back(g):
        g_agg = g * sv
        g_hs = _weighted_sum(src, dst, wv, g_agg) if need_h or need_s else None
        return (np.einsum("ij,ij->i", g, agg)[:, None] if need_s else None,
                _edge_dots(g_agg, hs, dst, src) if need_w else None,
                g_hs * sv if need_h else None,
                np.einsum("ij,ij->i", g_hs, hv)[:, None] if need_s else None,
                g * dv if need_h else None,
                np.einsum("ij,ij->i", g, hv)[:, None] if need_d else None)

    return _record("hop", Tensor(out), (inv_sqrt_deg, w, h, inv_sqrt_deg, h, inv_deg), back)


def gather_rows(a: Tensor, index) -> Tensor:
    """Row selection by an index into the rows of ``a`` (repeats allowed)."""
    idx = _as_index(index, a.shape[0])
    out = Tensor(a.values[idx.idx])
    return _record("gather_rows", out, (a,), lambda g: (_csr_matmul(*idx.layout, len(idx), g),))


def pair_mlp(a: Tensor, b: Tensor, v: Tensor, src, dst) -> Tensor:
    """Row-pair hidden and output layer: row e is relu(a[src[e]] + b[dst[e]]) v.

    ``v`` is one column. The pairs run in row blocks (:func:`gathered_pairs`)
    and the tape keeps only the hidden layer's sign pattern, packed to bits.
    The backward segment-sums the masked g over ``src`` and ``dst`` (G_a, G_b,
    block by block in ascending pair order) and, as relu(z) = mask * z, gives
    G_a diag(v), G_b diag(v) and the column sums of a * G_a + b * G_b for ``v``:
    ``matmul(relu(add(gather_rows(a, src), gather_rows(b, dst))), v)`` up to
    rounding, without its pairs x width arrays.
    """
    width = a.shape[1]
    if b.shape[1] != width or v.shape != (width, 1) or len(src) != len(dst):
        raise ShapeError(f"operation 'pair_mlp' needs equal widths, a ({width}, 1) column "
                         f"and equal index lengths, got {a.shape}, {b.shape}, {v.shape} "
                         f"and {len(src)}, {len(dst)} pairs")
    src, dst = _as_index(src, a.shape[0]), _as_index(dst, b.shape[0])
    av, bv, vv = a.values, b.values, v.values
    need_a, need_b, need_v = a.requires_grad, b.requires_grad, v.requires_grad
    taped = need_a or need_b or need_v
    n_pairs = len(src)
    ov = np.empty((n_pairs, 1))
    mask = np.empty((n_pairs, (width + 7) // 8), dtype=np.uint8) if taped else None
    for lo, hi, z, zb in gathered_pairs(av, bv, src, dst):
        z += zb
        if taped:
            mask[lo:hi] = np.packbits(z > 0.0, axis=1)
        np.maximum(z, 0.0, out=z)
        np.matmul(z, vv, out=ov[lo:hi])
    out = Tensor(ov)

    def back(g):
        step = block_rows(8 * width)
        g_a = np.zeros((av.shape[0], width)) if need_a or need_v else None
        g_b = np.zeros((bv.shape[0], width)) if need_b or need_v else None
        sums = [(acc, idx.blocks(step))
                for idx, acc in ((src, g_a), (dst, g_b)) if acc is not None]
        buf = np.empty((min(step, n_pairs), width))
        for k, lo in enumerate(range(0, n_pairs, step)):
            hi = min(lo + step, n_pairs)
            gm = np.multiply(np.unpackbits(mask[lo:hi], axis=1, count=width), g[lo:hi],
                             out=buf[:hi - lo])
            for acc, layouts in sums:
                _csr_matmul(*layouts[k], hi - lo, gm, out=acc)  # in place, no n x width temporary
        gv = ((av * g_a).sum(axis=0) + (bv * g_b).sum(axis=0))[:, None] if need_v else None
        return (g_a * vv.T if need_a else None, g_b * vv.T if need_b else None, gv)

    return _record("pair_mlp", out, (a, b, v), back)


def attention(s_src: Tensor, s_dst: Tensor, weights: Tensor, src, dst) -> Tensor:
    """GAT coefficients over the pairs (src[e], dst[e]) as a column: one record
    for the chain of gathers, add, leaky ReLU (slope 0.2), shift by the largest
    score, exp, times w (``weights``, then 1 for each pair past them: the
    self-loops), segment sum over dst + EPS and division, bit for bit."""
    n_pairs, m = len(src), weights.shape[0]
    if {s_src.shape[1], s_dst.shape[1], weights.shape[1]} != {1} or not m <= n_pairs == len(dst):
        raise ShapeError(f"operation 'attention' needs score and weight columns, at most "
                         f"{n_pairs} weights and {n_pairs} destinations, got {s_src.shape}, "
                         f"{s_dst.shape}, {weights.shape} and {len(dst)}")
    src, dst = _as_index(src, s_src.shape[0]), _as_index(dst, s_dst.shape[0])
    scores = s_src.values[src.idx] + s_dst.values[dst.idx]
    _check_finite(scores, "attention")
    positive = scores > 0.0
    scores = np.where(positive, scores, 0.2 * scores)
    e = np.exp(scores - float(scores.max()))
    w_all = np.vstack([weights.values + 0.0, np.ones((n_pairs - m, 1))])  # + 0.0: no -0.0
    z = e * w_all
    denom = _csr_matmul(*dst.layout, n_pairs, z) + EPS
    inv = np.power(denom[dst.idx], -1.0)
    need_src, need_dst, need_w = s_src.requires_grad, s_dst.requires_grad, weights.requires_grad

    def back(g):
        g_z = g * inv
        g_z += _csr_matmul(*dst.layout, n_pairs,
                           g * z * -1.0 * np.power(denom[dst.idx], -2.0))[dst.idx]
        g_s = g_z * w_all * e * np.where(positive, 1.0, 0.2) if need_src or need_dst else None
        return (_csr_matmul(*src.layout, n_pairs, g_s) if need_src else None,
                _csr_matmul(*dst.layout, n_pairs, g_s) if need_dst else None,
                g_z[:m] * e[:m] if need_w else None)

    return _record("attention", Tensor(z * inv), (s_src, s_dst, weights), back)


def scatter_rows(a: Tensor, index, n_rows: int) -> Tensor:
    """Segment-sum rows of ``a`` into ``n_rows`` buckets given by ``index``."""
    idx = _as_index(index, n_rows)
    if len(idx) != a.shape[0]:
        raise ShapeError(f"operation 'scatter_rows' index length {len(idx)} != rows {a.shape[0]}")
    out = Tensor(_csr_matmul(*idx.layout, len(idx), a.values))
    return _record("scatter_rows", out, (a,), lambda g: (g[idx.idx],))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"operation 'concat_cols' row mismatch: {a.shape} vs {b.shape}")
    na = a.shape[1]
    out = Tensor(np.hstack([a.values, b.values]))
    return _record("concat_cols", out, (a, b),
                   lambda g: (g[:, :na], g[:, na:]))


# ---------------------------------------------------------------------------
# weighted sums of model outputs

def mixture(outs: Sequence[Tensor], weights: Tensor) -> Tensor:
    """sum_k weights[:, k] * outs[k], added in k order: the gate-weighted
    mixture per row, one record for the chain of ``mul_col`` by each weight
    column and ``add``. As it, the backward visits k in descending order; it
    writes column k of the weight gradient in place."""
    shape = outs[0].shape
    if weights.shape != (shape[0], len(outs)) or any(o.shape != shape for o in outs):
        raise ShapeError(f"operation 'mixture' needs {len(outs)} outputs of one shape and "
                         f"({shape[0]}, {len(outs)}) weights, got "
                         f"{[o.shape for o in outs]} and {weights.shape}")
    wv = weights.values
    out = outs[0].values * wv[:, :1]
    for k in range(1, len(outs)):
        out += outs[k].values * wv[:, k:k + 1]
    needs = [o.requires_grad for o in outs]
    need_w = weights.requires_grad
    ks = range(len(outs) - 1, -1, -1)

    def back(g):
        gw = None
        if need_w:
            gw = np.empty_like(wv)
            for k in ks:
                gw[:, k] = np.einsum("ij,ij->i", g, outs[k].values)
        return (*(g * wv[:, k:k + 1] if needs[k] else None for k in ks), gw)

    return _record("mixture", Tensor(out), (*(outs[k] for k in ks), weights), back)


def residual_sum(base: Tensor, terms: Sequence[Tensor], scales: Sequence[Tensor]) -> Tensor:
    """base + ((s_1 t_1 + s_2 t_2) + ...) for 1x1 scales s_k, one record for
    the chain of each scaled term, their ``add`` in order and the add to base."""
    if ({t.shape for t in terms} != {base.shape} or len(scales) != len(terms)
            or {s.shape for s in scales} != {(1, 1)}):
        raise ShapeError(f"operation 'residual_sum' needs terms of shape {base.shape} and "
                         f"one 1x1 scale each, got {[t.shape for t in (*terms, *scales)]}")
    svs = [s.values[0, 0] for s in scales]
    out = terms[0].values * svs[0]
    for t, sv in zip(terms[1:], svs[1:]):
        out += t.values * sv
    out += base.values
    need_t, need_s = [t.requires_grad for t in terms], [s.requires_grad for s in scales]

    def back(g):
        return (g, *(g * sv if need else None for sv, need in zip(svs, need_t)),
                *(np.array([[np.sum(g * t.values)]]) if need else None
                  for t, need in zip(terms, need_s)))

    return _record("residual_sum", Tensor(out), (base, *terms, *scales), back)


def blend(a: Tensor, b: Tensor, alpha: np.ndarray) -> Tensor:
    """[alpha * a, (1 - alpha) * b] for a constant n x 1 column ``alpha``, written
    into one output: one record for ``concat_cols`` of the two ``mul_col``."""
    if a.shape != b.shape or alpha.shape != (a.shape[0], 1):
        raise ShapeError(f"operation 'blend' needs two equal shapes and a ({a.shape[0]}, 1) "
                         f"blend column, got {a.shape}, {b.shape} and {alpha.shape}")
    one_minus = 1.0 - alpha
    d = a.shape[1]
    out = np.empty((a.shape[0], 2 * d))
    np.multiply(a.values, alpha, out=out[:, :d])
    np.multiply(b.values, one_minus, out=out[:, d:])
    need_a, need_b = a.requires_grad, b.requires_grad
    return _record("blend", Tensor(out), (a, b),
                   lambda g: (g[:, :d] * alpha if need_a else None,
                              g[:, d:] * one_minus if need_b else None))


# ---------------------------------------------------------------------------
# nonlinearities

def relu(a: Tensor) -> Tensor:
    av = a.values
    out = Tensor(np.maximum(av, 0.0))
    return _record("relu", out, (a,), lambda g: (g * (av > 0.0),))


def sigmoid(a: Tensor) -> Tensor:
    sv = expit(a.values)
    out = Tensor(sv)
    return _record("sigmoid", out, (a,), lambda g: (g * sv * (1.0 - sv),))


def power(a: Tensor, p: float) -> Tensor:
    av = a.values
    with np.errstate(all="ignore"):
        out = Tensor(np.power(av, p))
    return _record("power", out, (a,),
                   lambda g: (g * p * np.power(av, p - 1.0),))


# ---------------------------------------------------------------------------
# reductions and row-wise ops

def mean_all(a: Tensor) -> Tensor:
    n = a.values.size
    out = Tensor(np.mean(a.values))
    return _record("mean_all", out, (a,),
                   lambda g: (np.full(a.shape, g[0, 0] / n),))


def softmax_rows(a: Tensor) -> Tensor:
    av = a.values
    shifted = av - av.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sv = e / e.sum(axis=1, keepdims=True)
    out = Tensor(sv)
    return _record("softmax_rows", out, (a,),
                   lambda g: (sv * (g - (g * sv).sum(axis=1, keepdims=True)),))


def log_softmax_rows(a: Tensor) -> Tensor:
    av = a.values
    shifted = av - av.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    lsv = shifted - lse
    pv = np.exp(lsv)
    out = Tensor(lsv)
    return _record("log_softmax_rows", out, (a,),
                   lambda g: (g - pv * g.sum(axis=1, keepdims=True),))


def cosine_rows(a: Tensor, b: Tensor, gram: np.ndarray | None = None) -> Tensor:
    """Row-wise cosine similarity as an nx1 column; zero-norm rows give 0. Under
    a constant symmetric ``gram`` G = B B^T, <x, y> = x G y^T: cos(a B, b B)."""
    _same_shape(a, b, "cosine_rows")
    av, bv = a.values, b.values
    ag, bg = (av, bv) if gram is None else (av @ gram, bv @ gram)
    dots = (ag * bv).sum(axis=1, keepdims=True)
    na = np.sqrt(np.maximum((ag * av).sum(axis=1, keepdims=True), 0.0))
    nb = np.sqrt(np.maximum((bg * bv).sum(axis=1, keepdims=True), 0.0))
    denom = na * nb + EPS
    out = Tensor(dots / denom)
    need_a, need_b = a.requires_grad, b.requires_grad

    def back(g):
        common = g * dots / (denom * denom)
        ga = gb = None
        if need_a:
            ga = g * bg / denom - common * nb * ag / np.where(na > 0, na, np.inf)
        if need_b:
            gb = g * ag / denom - common * na * bg / np.where(nb > 0, nb, np.inf)
        return (ga, gb)

    return _record("cosine_rows", out, (a, b), back)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    """Adam moments for one parameter group; step counts shared."""

    lr: float = 3e-5
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: Sequence[Tensor], state: AdamState) -> None:
    """Adam with bias correction (betas 0.9, 0.999; eps 1e-8); zeroes gradients after."""
    state.step += 1
    b1, b2 = 0.9, 0.999
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        if i not in state.m:
            state.m[i] = np.zeros_like(p.values)
            state.v[i] = np.zeros_like(p.values)
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.values = p.values - state.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        p.grad = None


# ---------------------------------------------------------------------------
# stochastic helpers

def gumbel_pair(rng: np.random.Generator,
                shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard Gumbel(0,1) samples."""
    u = rng.random(size=(2,) + tuple(shape))
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    g = -np.log(-np.log(u))
    return g[0], g[1]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    """Uniform Glorot-style init, seed-deterministic; requires_grad on."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)


def zeros_param(shape: tuple[int, int]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


@dataclass
class MLP:
    """One-hidden-layer perceptron, relu(h W1 + b1) W2 + b2."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, h: Tensor) -> Tensor:
        return linear(relu(linear(h, self.w1, self.b1)), self.w2, self.b2)


def init_mlp(rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int) -> MLP:
    """Glorot weights (W1 drawn first), zero biases."""
    return MLP(w1=glorot(rng, d_in, d_hidden), b1=zeros_param((1, d_hidden)),
               w2=glorot(rng, d_hidden, d_out), b2=zeros_param((1, d_out)))


# ---------------------------------------------------------------------------
# output files and the checkpoint archive (text manifest + flat float64 payload)

def atomic_write(path, data: str | bytes) -> None:
    """Write via temp file + rename, so an interrupted write leaves any
    previous file intact and no temporary file behind.  The temporary file
    is created exclusively (an existing file or symlink there is refused,
    never written through) with the umask's mode."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb" if isinstance(data, bytes) else "w",
              opener=lambda p, flags: os.open(p, flags | os.O_EXCL, 0o666))
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_checkpoint(path, named: dict[str, np.ndarray]) -> None:
    """Write named float64 matrices as a flat archive with a text manifest."""
    entries = []
    offset = 0
    blobs = []
    for name, arr in named.items():
        if name.split() != [name]:   # the manifest reader splits on whitespace
            raise ValueError(f"checkpoint entry name {name!r} is empty or holds whitespace")
        a = np.ascontiguousarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"checkpoint entry '{name}' must be a matrix, got shape {a.shape}")
        entries.append((name, a.shape[0], a.shape[1], offset))
        blob = a.tobytes()
        blobs.append(blob)
        offset += len(blob)
    manifest = [CHECKPOINT_HEADER, str(len(entries))]
    manifest += [f"{name} {rows} {cols} {off}" for name, rows, cols, off in entries]
    header = ("\n".join(manifest) + "\n").encode("utf-8")
    atomic_write(path, b"".join([len(header).to_bytes(8, "little"), header, *blobs]))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The named matrices of a :func:`save_checkpoint` archive. A file cut
    short, not an archive, with a malformed manifest (an entry named twice
    too) or payload bytes past the last entry raises ValueError naming ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = 8 + int.from_bytes(raw[:8], "little")
    if len(raw) < start:
        raise ValueError(f"{path}: truncated checkpoint or not one ({len(raw)} bytes, "
                         f"the header would end at byte {start})")
    lines = raw[8:start].decode("utf-8", errors="replace").splitlines()
    if lines[:1] != [CHECKPOINT_HEADER]:
        raise ValueError(f"{path}: not a checkpoint archive "
                         f"(expected header {CHECKPOINT_HEADER!r})")
    try:
        entries = [(name, int(rows), int(cols), int(off))
                   for name, rows, cols, off in map(str.split, lines[2:])]
        if int(lines[1]) != len(entries):
            raise ValueError(f"it announces {lines[1]} entries and lists {len(entries)}")
    except (IndexError, ValueError) as err:
        raise ValueError(f"{path}: malformed checkpoint manifest: {err}") from None
    size = len(raw) - start
    named = {}
    end = 0
    for name, rows, cols, off in entries:
        if name in named:
            raise ValueError(f"{path}: malformed checkpoint manifest: '{name}' listed twice")
        if min(rows, cols) < 0 or off != end:
            raise ValueError(f"{path}: malformed checkpoint manifest: entry '{name}' has "
                             f"rows {rows}, cols {cols} and offset {off}; the previous "
                             f"entry ends at payload byte {end}")
        end = off + rows * cols * 8
        if end > size:
            raise ValueError(f"{path}: truncated checkpoint: entry '{name}' needs payload "
                             f"bytes {off}-{end}, the file holds {size}")
        named[name] = np.frombuffer(raw[start + off:start + end]).reshape(rows, cols).copy()
    if end != size:
        raise ValueError(f"{path}: checkpoint payload holds {size} bytes, its entries end at {end}")
    return named

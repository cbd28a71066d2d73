"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is define-by-run: a :class:`Tape` is opened around a forward
computation, every kernel that touches a gradient-carrying tensor appends a
node (inputs, output, local backward rule) in creation order, and
:func:`backward` walks the tape once in reverse.  A backward rule computes
no gradient for an input that does not require one, and only the tensors
the tape watches (its leaves) receive ``.grad``; intermediate and constant
tensors never do.  Tensors are thin wrappers around C-contiguous ``numpy``
arrays; all kernels are pure functions that return fresh tensors.

Row-vector convention: vectors are 1xd matrices where a matmul is involved,
so ``x @ W`` applies a linear map.  Kernels never mutate their input tensors;
``attention`` appends to the ``KVCache`` it is given.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ContractError, EvaluationError, ShapeError

Array = np.ndarray


class Tensor:
    """A dense double-precision array, optionally tracked on the active tape."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # C-contiguous float64 arrays (kernel outputs) are kept as they are;
        # anything else is converted, which also turns 0-d into 1-d.
        if (type(data) is not np.ndarray or data.dtype != np.float64 or not data.ndim
                or not data.flags.c_contiguous):
            data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.data: Array = data
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self) -> float:
        raise ContractError(f"item() needs a scalar tensor, got shape {self.data.shape}")

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; all routed through the module-level kernels.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class _TapeNode:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Records operations in creation order (a valid topological order)."""

    def __init__(self):
        self.nodes: list[_TapeNode] = []
        self.watched: list[Tensor] = []

    def watch(self, *tensors: Tensor) -> None:
        """Mark tensors as gradient leaves for this tape."""
        seen = {id(t) for t in self.watched}
        for t in tensors:
            t.requires_grad = True
            if id(t) not in seen:
                self.watched.append(t)
                seen.add(id(t))

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    """Append a node to the active tape when any input carries gradients."""
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        tape = _TAPE_STACK[-1]
        out.requires_grad = True
        tape.nodes.append(_TapeNode(out, inputs, backward_fn))
    return out


class _RowGrad:
    """The gradient of ``gather_rows``' output: ``rows[i]`` adds to row
    ``ids[i]`` of the gathered tensor's gradient.  :func:`backward` collects
    these and scatters them once per tensor."""

    __slots__ = ("ids", "rows")

    def __init__(self, ids: Array, rows: Array):
        self.ids = ids
        self.rows = rows


def _scatter(t: Tensor, dense: Array | None, parts: list[_RowGrad]) -> Array:
    """Every part's rows summed into the rows of ``t`` at their ids, plus
    ``dense``.  One ``bincount`` over the parts joined in the order they
    arrived sums each entry's rows in that order (as ``np.add.at`` would, at
    a fraction of its cost)."""
    if len(parts) == 1:
        ids, rows = parts[0].ids, parts[0].rows
    else:
        ids = np.concatenate([p.ids for p in parts])
        rows = np.concatenate([p.rows for p in parts])
    width = math.prod(t.data.shape[1:])
    flat = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    grad = np.bincount(flat, weights=rows.reshape(-1), minlength=t.data.size)
    grad = grad.reshape(t.data.shape)
    if dense is not None:
        grad += dense
    return grad


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep over ``tape`` from scalar ``loss``.

    Sets ``.grad`` on the watched tensors only (zeros for one on no path to
    the loss); intermediate results and constants get none.  Row gradients
    from ``gather_rows`` are kept apart and scattered into a tensor's dense
    gradient once: just before the node that made the tensor runs, or at the
    end for a watched leaf.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    scattered: dict[int, list[_RowGrad]] = {}
    for node in reversed(tape.nodes):
        key = id(node.out)
        g = grads.get(key)
        if key in scattered:
            g = _scatter(node.out, g, scattered.pop(key))
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            key = id(t)
            if type(gi) is _RowGrad:
                scattered.setdefault(key, []).append(gi)
                continue
            seen = grads.get(key)
            grads[key] = gi if seen is None else seen + gi
    for t in tape.watched:
        key = id(t)
        g = grads.get(key)
        if key in scattered:
            g = _scatter(t, g, scattered.pop(key))
        t.grad = np.zeros_like(t.data) if g is None else np.ascontiguousarray(g)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _record(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices.  An operand that does not require a
    gradient (an averaging or pooling matrix) gets none."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul shapes do not conform: {ad.shape} x {bd.shape}")
    out = Tensor(ad @ bd)

    def bw(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _record(out, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, for a (rows, fan_in) ``x``, a (fan_in,
    fan_out) ``w`` and a (fan_out,) ``b``.  An operand that does not require
    a gradient gets none."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear shapes do not conform: {xd.shape} x {wd.shape} + {bd.shape}")
    out = xd @ wd
    out += bd

    def bw(g):
        return (g @ wd.T if x.requires_grad else None,
                xd.T @ g if w.requires_grad else None,
                np.add.reduce(g, axis=0) if b.requires_grad else None)

    return _record(Tensor(out), (x, w, b), bw)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0.0
    return _record(out, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # Branch on sign so exp never overflows.
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)
    return _record(out, (a,), lambda g: (g * s * (1.0 - s),))


def _outside(ids: Array, bound: int) -> bool:
    """Whether any of the (non-empty, int64) ``ids`` lies outside [0, bound):
    read as unsigned, a negative id is larger than any bound."""
    return bool(np.maximum.reduce(ids.view(np.uint64)) >= bound)


def log_likelihood_rows(logits: Tensor, targets) -> Tensor:
    """``log_softmax(logits)[i, targets[i]]`` for every row ``i`` as one node:
    a vector with one entry per row.  The backward is ``g * (onehot -
    softmax)``, so the (rows, classes) log-probabilities are never stored."""
    a = logits.data
    if a.ndim != 2:
        raise ShapeError(f"log_likelihood_rows expects a matrix, got shape {a.shape}")
    cols = np.asarray(targets, dtype=np.int64)
    if cols.shape != (a.shape[0],):
        raise ShapeError(f"log_likelihood_rows needs one target per row: {a.shape[0]} rows, "
                         f"targets of shape {cols.shape}")
    if cols.size and _outside(cols, a.shape[1]):
        raise ContractError(f"log_likelihood_rows targets must lie in [0, {a.shape[1]}), "
                            f"got {cols.min()}..{cols.max()}")
    rows = np.arange(a.shape[0])
    z = a - a.max(axis=1, keepdims=True)
    picked = z[rows, cols]
    # In place: one fresh (rows, classes) array forward and one backward.
    e = np.exp(z, out=z)
    total = e.sum(axis=1, keepdims=True)
    out = Tensor(picked - np.log(total[:, 0]))

    def bw(g):
        ga = e / total
        ga *= -g[:, None]
        ga[rows, cols] += g
        return (ga,)

    return _record(out, (logits,), bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``(x - mean) / sqrt(var + LAYER_NORM_EPS) * gain + bias`` over the last
    axis, with gain and bias of shape (d,); the backward is analytic (Ba et
    al., 2016)."""
    xd = x.data
    d = xd.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm over rows of {d} needs gain and bias of shape ({d},), "
                         f"got {gain.data.shape} and {bias.data.shape}")
    # add.reduce / d equals ndarray.mean bit for bit, without its Python wrapper.
    centered = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    std = np.sqrt(var + LAYER_NORM_EPS)
    x_hat = centered / std
    out = Tensor(x_hat * gain.data + bias.data)

    def bw(g):
        gx = g * gain.data
        mean_gx = np.add.reduce(gx, axis=-1, keepdims=True) / d
        mean_gx_hat = np.add.reduce(gx * x_hat, axis=-1, keepdims=True) / d
        return ((gx - mean_gx - x_hat * mean_gx_hat) / std,
                _unbroadcast(g * x_hat, gain.data.shape), _unbroadcast(g, bias.data.shape))

    return _record(out, (x, gain, bias), bw)


# exp(x) is exactly 0.0 for every x below this (exp(-745.14) is the smallest
# subnormal double).
_DEAD_SCORE = -746.0


class KVCache:
    """One attention block's keys and values (heads, capacity, dh); rows [0, used) are filled."""

    __slots__ = ("k", "v", "used")

    def __init__(self, capacity: int, heads: int, dh: int):
        self.k = np.empty((heads, capacity, dh))
        self.v = np.empty((heads, capacity, dh))
        self.used = 0


def attention(h: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
              mask: Array | None = None, cache: KVCache | None = None,
              first_row: int = 0) -> tuple[Tensor, Array]:
    """Multi-head attention over the rows of ``h`` as one tape node: ``wq``/
    ``wk``/``wv`` are (heads, d, dh), ``wo`` is (heads, dh, d), and ``mask`` is
    added to every head's scaled scores.  Every row gives a key and a value;
    only rows ``first_row:`` give queries, so ``mask`` has one row per query.
    Returns the (queries, d) sum of the head outputs and the (heads, queries,
    keys) probabilities as an array.

    With a ``cache`` (tape-free decoding only) the keys and values of all rows
    of ``h`` are appended to the cached ones, and the queries attend to all of
    them."""
    if h.data.ndim != 2:
        raise ShapeError(f"attention needs a (rows, d) input, got shape {h.data.shape}")
    if not 0 <= first_row < h.data.shape[0]:
        raise ContractError(f"first_row {first_row} is outside [0, {h.data.shape[0]})")
    hd, wqd, wkd, wvd, wod = h.data, wq.data, wk.data, wv.data, wo.data
    hq = hd[first_row:] if first_row else hd
    q, k, v = hq @ wqd, hd @ wkd, hd @ wvd
    if cache is not None:
        if _TAPE_STACK:
            raise ContractError("a KV cache cannot be used while a tape is recording")
        start, end = cache.used, cache.used + hd.shape[0]
        if end > cache.k.shape[1]:
            raise CapacityError(f"KV cache of {cache.k.shape[1]} rows cannot take {end}")
        cache.k[:, start:end] = k
        cache.v[:, start:end] = v
        cache.used = end
        k, v = cache.k[:, :end], cache.v[:, :end]
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    if mask is None:
        probs = np.exp(scores, out=scores)
    else:
        # A masked score's exp is exactly 0.0 but slow to compute.  Skip it,
        # then turn the skipped (negative) scores into +0.0; exp is >= 0.
        probs = np.exp(scores, out=scores, where=scores > _DEAD_SCORE)
        np.maximum(probs, 0.0, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    heads_v = probs @ v
    out = Tensor(np.add.reduce(heads_v @ wod, axis=0))

    def bw(g):
        # d scores = probs * (d probs - rowsum(d probs * probs)) with d probs
        # = g_heads_v @ v^T; that row sum equals rowsum(g_heads_v * heads_v)
        # over dh (Dao et al., 2022).  The scale is applied to g_heads_v.
        g_heads_v = g @ np.swapaxes(wod, -1, -2)
        g_scaled = g_heads_v * scale
        g_scores = g_scaled @ np.swapaxes(v, -1, -2)
        g_scores -= np.add.reduce(g_scaled * heads_v, axis=-1, keepdims=True)
        g_scores *= probs
        gq = g_scores @ k
        gk = np.swapaxes(g_scores, -1, -2) @ q
        gv = np.swapaxes(probs, -1, -2) @ g_heads_v
        gh = gk @ np.swapaxes(wkd, -1, -2)
        gh[:, first_row:] += gq @ np.swapaxes(wqd, -1, -2)
        gh += gv @ np.swapaxes(wvd, -1, -2)
        return (np.add.reduce(gh, axis=0), hq.T @ gq, hd.T @ gk, hd.T @ gv,
                np.swapaxes(heads_v, -1, -2) @ g)

    return _record(out, (h, wq, wk, wv, wo), bw), probs


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry, as a one-entry tensor."""
    out = Tensor(a.data.sum())
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def tmean(a: Tensor) -> Tensor:
    """The mean of every entry, as a one-entry tensor."""
    out = Tensor(a.data.mean())
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy() / a.data.size,))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join ``parts`` along ``axis``; a constant part gets no gradient."""
    arrs = [p.data for p in parts]
    out = Tensor(np.concatenate(arrs, axis=axis))

    def bw(g):
        splits = np.cumsum([arr.shape[axis] for arr in arrs])[:-1]
        return tuple(np.ascontiguousarray(piece) if p.requires_grad else None
                     for p, piece in zip(parts, np.split(g, splits, axis=axis)))

    return _record(out, tuple(parts), bw)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows ``table[ids]`` for ids in [0, rows).  The backward hands
    :func:`backward` the ids and the rows' gradient, which it scatter-adds
    into the table's gradient."""
    idx = np.asarray(ids, dtype=np.int64)
    rows = table.data.shape[0]
    if idx.size and _outside(idx, rows):
        raise ContractError(f"gather_rows ids must lie in [0, {rows}), "
                            f"got {idx.min()}..{idx.max()}")
    out = Tensor(table.data[idx])
    return _record(out, (table,), lambda g: (_RowGrad(idx, g),))


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with a mask drawn from ``rng``; identity at rate 0."""
    if rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * mask)
    return _record(out, (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# Verification helpers
# ---------------------------------------------------------------------------


def grad_check(
    params: Mapping[str, Tensor],
    fn: Callable[[Mapping[str, Tensor]], Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central finite differences.

    ``fn`` must be a deterministic map from the (shared) parameter mapping to a
    scalar tensor.  Error per scalar parameter is
    ``|analytic - (f(p+eps) - f(p-eps)) / 2 eps| / max(1, |analytic|)``.
    ``eps`` must be positive and finite.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ContractError(f"grad_check eps must be positive and finite, got {eps}")

    def value_of(objective: Tensor) -> float:
        v = objective.data.reshape(-1)
        if v.size != 1 or not np.isfinite(v[0]):
            raise EvaluationError(f"grad_check objective is not a finite scalar: "
                                  f"shape {objective.data.shape}")
        return float(v[0])

    with Tape() as tape:
        for t in params.values():
            tape.watch(t)
        loss = fn(params)
        value_of(loss)
        backward(tape, loss)

    worst = 0.0
    for t in params.values():
        analytic = t.grad.reshape(-1)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = value_of(fn(params))
            flat[i] = orig - eps
            f_minus = value_of(fn(params))
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
            if err > worst:
                worst = err
    return worst

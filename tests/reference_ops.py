"""Tensor operations that only the tests use: the primitives that the
composed references (per-head attention, composed layer norm and
log-softmax, the scalar-node lattice, the per-example training step) are
built from. ttkit's own graphs use the fused nodes of `ttkit.tensor` and
its modules; these stay as the independent pieces those nodes are checked
against. `uniform_grid` is the input of the closed-form lattice oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ttkit import transducer as tr
from ttkit.tensor import ShapeError, Tensor, unbroadcast


def uniform_grid(T: int, U: int, V: int) -> tr.LogProbGrid:
    """The grid whose every distribution is uniform over the V symbols: the
    input of the closed-form lattice oracle."""
    return tr.LogProbGrid(Tensor(tr._log_softmax(np.zeros((T, U + 1, V)))[0]))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.values - b.values

    def bw(g):
        return unbroadcast(g, a.shape), unbroadcast(-g, b.shape)

    return Tensor(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values

    def bw(g):
        return unbroadcast(g * b.values, a.shape), unbroadcast(g * a.values, b.shape)

    return Tensor(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.values, (a,), lambda g: (-g,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    keep = a.values > 0
    return Tensor(np.where(keep, a.values, 0.0), (a,), lambda g: (g * keep,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return Tensor(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.values), (a,), lambda g: (g / a.values,))


def powc(a: Tensor, p: float) -> Tensor:
    """Raise to a constant power."""
    out = np.power(a.values, p)
    return Tensor(out, (a,), lambda g: (g * p * np.power(a.values, p - 1.0),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out, (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def reshape(a: Tensor, shape) -> Tensor:
    out = a.values.reshape(shape)
    return Tensor(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.values, axes)
    inv = None if axes is None else np.argsort(axes)
    return Tensor(out, (a,), lambda g: (np.transpose(g, inv),))


def getitem(a: Tensor, key) -> Tensor:
    out = a.values[key]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out, dtype=np.float64)

    def bw(g):
        ga = np.zeros_like(a.values)
        ga[key] += g
        return (ga,)

    return Tensor(out, (a,), bw)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(parts)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return Tensor(out, tuple(parts), bw)


def gather_cols(a: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row column gather: out[i, j] = a[i, idx[i, j]] for a 2D tensor."""
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"gather_cols needs 2D operands with equal row counts, got {a.shape} and {idx.shape}")
    out = np.take_along_axis(a.values, idx, axis=1)

    def bw(g):
        ga = np.zeros_like(a.values)
        rows = np.arange(a.shape[0])[:, None]
        np.add.at(ga, (rows, idx), g)
        return (ga,)

    return Tensor(out, (a,), bw)


def apply_mask(a: Tensor, mask: np.ndarray) -> Tensor:
    """Keep entries where `mask` is true, set the rest to -inf.

    The only sanctioned source of infinities in a graph: downstream softmax /
    logsumexp treat -inf as zero probability and propagate zero gradient.
    """
    out = np.where(mask, a.values, -np.inf)
    return Tensor(out, (a,), lambda g: (np.where(mask, g, 0.0),))


def logsumexp(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along one axis.

    Rows of all -inf reduce to -inf with zero gradient. An empty axis is an
    error (the reduction has no identity in log space).
    """
    if a.shape[axis] == 0:
        raise ShapeError(f"logsumexp over empty axis {axis} of shape {a.shape}")
    m = np.max(a.values, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a.values - m_safe)
    s = e.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out_k = m_safe + np.log(s)
    out_k = np.where(np.isfinite(m), out_k, m)  # all -inf rows stay -inf
    out = out_k if keepdims else np.squeeze(out_k, axis=axis)

    def bw(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        with np.errstate(invalid="ignore"):
            w = np.where(s > 0, e / s, 0.0)
        return (gk * w,)

    return Tensor(out, (a,), bw)


def logaddexp(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise log(exp(a) + exp(b)), stable, broadcasting like add."""
    out = np.logaddexp(a.values, b.values)

    def bw(g):
        with np.errstate(invalid="ignore"):
            wa = np.where(np.isneginf(out), 0.0, np.exp(a.values - out))
            wb = np.where(np.isneginf(out), 0.0, np.exp(b.values - out))
        return unbroadcast(g * wa, a.shape), unbroadcast(g * wb, b.shape)

    return Tensor(out, (a, b), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """One node: a - logsumexp(a). The backward is g - softmax * sum(g).

    Non-finite logits give NaN (a +inf entry, a row of all -inf) without
    floating-point warnings; the caller's finiteness checks report them.
    """
    with np.errstate(all="ignore"):
        m = np.max(a.values, axis=axis, keepdims=True)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        lse = m_safe + np.log(np.exp(a.values - m_safe).sum(axis=axis, keepdims=True))
        lse = np.where(np.isfinite(m), lse, m)
        out = a.values - lse

    def bw(g):
        with np.errstate(all="ignore"):
            p = np.where(np.isneginf(lse), 0.0, np.exp(out))
            return (g - p * g.sum(axis=axis, keepdims=True),)

    return Tensor(out, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    return exp(log_softmax(a, axis=axis))

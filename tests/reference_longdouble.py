"""An extended-precision reference for the alignment lattice, used only by
the tests: the scalar alpha and beta recursions of Graves (2012) over one
example's log-probability grid, each cell stepped on its own in
`np.longdouble`. Where long double is x87 80-bit (eps 2^-63), its log P
and arc occupancies stand in for the true values, which the float64
kernels of `ttkit.transducer` should reach within a few ulp at any size.
Where long double is plain double it is no reference (`EXTENDED`)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

LD = np.longdouble
EXTENDED = np.finfo(LD).eps < 2.0 ** -60


def lattice(lp: np.ndarray, y: Sequence[int]) -> tuple[LD, np.ndarray, np.ndarray]:
    """log P(y | x) of one example's grid lp [T, U+1, V] and the arc
    occupancies exp(alpha + arc + beta_next - log P) of its blank arcs
    [T, U+1] and label arcs [T, U], all in long double. Blank is id 0."""
    lp = lp.astype(LD)  # float64 -> long double is exact
    T, U = lp.shape[0], len(y)
    blank = lp[:, :U + 1, 0]
    emit = np.take_along_axis(lp[:, :U], np.asarray(y, dtype=np.intp)[None, :, None], axis=-1)[..., 0]
    neg_inf = LD(-np.inf)
    alpha = np.full((T, U + 1), neg_inf, dtype=LD)
    for t in range(T):
        for u in range(U + 1):
            if t == 0 and u == 0:
                alpha[t, u] = LD(0)
                continue
            stay = alpha[t - 1, u] + blank[t - 1, u] if t > 0 else neg_inf
            move = alpha[t, u - 1] + emit[t, u - 1] if u > 0 else neg_inf
            alpha[t, u] = np.logaddexp(stay, move)
    # beta[t, u] = log-mass of the suffixes from (t, u), the final blank
    # included; row T and column U+1 hold the end point (T, U) and -inf
    beta = np.full((T + 1, U + 2), neg_inf, dtype=LD)
    beta[T, U] = LD(0)
    for t in range(T - 1, -1, -1):
        for u in range(U, -1, -1):
            move = emit[t, u] + beta[t, u + 1] if u < U else neg_inf
            beta[t, u] = np.logaddexp(blank[t, u] + beta[t + 1, u], move)
    log_p = alpha[T - 1, U] + blank[T - 1, U]
    blank_occ = np.exp(alpha + blank + beta[1:, :U + 1] - log_p)
    emit_occ = np.exp(alpha[:, :U] + emit + beta[:T, 1:U + 1] - log_p)
    return log_p, blank_occ, emit_occ


def loss_gradient(lp: np.ndarray, y: Sequence[int]) -> tuple[LD, np.ndarray]:
    """-log P(y | x) and its gradient with respect to the grid lp [T, U+1,
    V] in long double: minus each arc's occupancy at its blank or target
    label entry, 0 everywhere else."""
    log_p, blank_occ, emit_occ = lattice(lp, y)
    T, U = lp.shape[0], len(y)
    grad = np.zeros(lp.shape, dtype=LD)
    grad[:, :U + 1, 0] = -blank_occ
    grad[:, np.arange(U), np.asarray(y, dtype=np.intp)] = -emit_occ
    return -log_p, grad

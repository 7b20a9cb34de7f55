"""Dense float64 tensors with reverse-mode automatic differentiation.

Every numeric quantity in the toolkit lives in a `Tensor`. Operations build a
computation graph; calling `backward` on a scalar root accumulates gradients
into every reachable tensor (`graph`), newest first by creation. A node is
built after its parents, so that order is topological, and it is fixed:
repeated runs with identical inputs produce bitwise-identical values and
gradients. By default `backward` then checks every leaf gradient for NaN
and inf; a training step skips that and checks its one gradient buffer
through the clip norm instead (`train.clip_gradients`).

The cost of a graph is Python work per node, not arithmetic, so a training
step is a few dozen coarse nodes over a padded batch, each fused with a
closed-form backward: the modules' (attention, the feed-forward block, the
joint grid, the lattice loss) and the few here, an encoder's input
projection `linear`, the embedding gather `rows` and `layer_norm`. Weight
noise adds no node: training perturbs the stored parameters in place
(`train.weight_noise`). `Rng` is a keyed Philox stream; training draws
dropout per example of a padded batch, each layer's sites in one
`dropout_masks` call through a `BatchRng`. The elementwise, reduction and
generic product primitives that the composed test references are built
from live with those tests.

A graph is differentiated once: `backward` drops each node's saved arrays
and its own gradient as soon as its gradients have reached its parents, so
the pass holds only what the nodes still ahead of it need, and afterwards
only the leaves hold gradients. Build the graph again to differentiate
again.

Graph recording can be suspended with `no_grad()` for inference paths that
must not retain history (e.g. streaming state caches).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from contextlib import contextmanager
from dataclasses import fields
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericsError(ArithmeticError):
    """A non-finite value appeared where only finite values are allowed."""


def finite_fields(config, *names: str):
    """Raise a ValueError naming the first of `config`'s fields `names`
    that holds NaN or an infinity: the config dataclasses' float check."""
    for name in names:
        if not math.isfinite(value := getattr(config, name)):
            raise ValueError(f"{name} must be finite, got {value}")


_grad_enabled = True
_created = itertools.count()  # every Tensor's `seq`: the order tensors were built in


@contextmanager
def no_grad():
    """Suspend graph recording inside the context."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array, optionally attached to a differentiation graph.

    `parents` and `backward_fn` describe the producing operation; leaves have
    neither. `seq` numbers the tensors in the order they were built, so it
    is larger than every parent's. `backward` fills `grad` with an array of
    the same shape as `values`. A leaf keeps it; a non-leaf's is dropped
    (None again) as soon as it has reached the node's parents.
    """

    __slots__ = ("values", "parents", "backward_fn", "grad", "seq")

    def __init__(
        self,
        values,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        self.values = np.asarray(values, dtype=np.float64)
        if _grad_enabled:
            self.parents = parents
            self.backward_fn = backward_fn
        else:
            self.parents = ()
            self.backward_fn = None
        self.grad: np.ndarray | None = None
        self.seq = next(_created)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, leaf={self.backward_fn is None})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64))


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def flat_rows(a: np.ndarray) -> np.ndarray:
    """[..., n] -> [rows, n]: every leading axis folded into one."""
    return a.reshape(-1, a.shape[-1])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x W + b over the last axis of `x` [..., n], for W [n, m] and b [m]:
    one node over (x, w, b). Its backward runs the products over every
    leading axis folded into rows (`flat_rows`)."""
    out = x.values @ w.values + b.values

    def bw(g):
        g2 = flat_rows(g)
        return ((g2 @ w.values.T).reshape(x.shape), flat_rows(x.values).T @ g2,
                unbroadcast(g, b.shape))

    return Tensor(out, (x, w, b), bw)


def rows(a: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup (embedding gather): out[i] = a[ids[i]], for `ids` of any shape."""
    ids = np.asarray(ids, dtype=np.intp)
    out = a.values[ids]

    def bw(g):
        ga = np.zeros_like(a.values)
        np.add.at(ga, ids, g)
        return (ga,)

    return Tensor(out, (a,), bw)


def _centered(x: np.ndarray) -> np.ndarray:
    """x minus its mean over the last axis; for one row [n] the mean is a
    plain float."""
    scale = 1.0 / x.shape[-1]
    if x.ndim == 1:
        return x - float(np.add.reduce(x)) * scale
    return x - np.add.reduce(x, axis=-1, keepdims=True) * scale


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float) -> tuple[np.ndarray, np.ndarray | float]:
    """`layer_norm`'s values: (x̂ * gain + bias, inv) for x̂ = (x - mean) * inv,
    inv = 1 / sqrt(var + eps) over the last axis; `layer_norm_rebuild` gives
    x̂. For one row [n], the mean and inv are plain floats (numpy's power
    kept: Python's differs in the last bit), which is faster than [1]-arrays
    and gives the same bits as the row's own line of a batch."""
    scale = 1.0 / x.shape[-1]
    xc = _centered(x)
    if x.ndim == 1:
        inv = float(np.power(float(np.add.reduce(xc * xc)) * scale + eps, -0.5))
    else:
        inv = np.power(np.add.reduce(xc * xc, axis=-1, keepdims=True) * scale + eps, -0.5)
    return xc * inv * gain + bias, inv


def layer_norm_rebuild(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       inv: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """The output and x̂ of `layer_norm_forward` from its input and the inv
    it returned, by the forward's own ops, so bit for bit: a backward that
    kept only inv rebuilds them from the input's values."""
    xhat = _centered(x) * inv
    return xhat * gain + bias, xhat


def layer_norm_backward(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                        inv: np.ndarray | float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`layer_norm`'s gradients on (x, gain, bias) from the upstream `g` and
    the forward's x̂ and inv: dx = inv * (dx̂ - mean(dx̂) - x̂ * mean(dx̂ * x̂)),
    dx̂ = g * gain. Gain and bias share a shape."""
    n = g.shape[-1]
    dxhat = g * gain
    dx = inv * (dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
                - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n))
    return dx, unbroadcast(g * xhat, gain.shape), unbroadcast(g, gain.shape)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.
    One node over (x, gain, bias) with the closed-form `layer_norm_backward`,
    keeping only inv: the backward rebuilds x̂ (`layer_norm_rebuild`)."""
    out, inv = layer_norm_forward(x.values, gain.values, bias.values, eps)

    def bw(g):
        xhat = layer_norm_rebuild(x.values, gain.values, bias.values, inv)[1]
        return layer_norm_backward(g, gain.values, xhat, inv)

    return Tensor(out, (x, gain, bias), bw)


def dropout_masks(shapes: Sequence[tuple[int, ...]], ratio: float,
                  rng: "BatchRng | None") -> list[np.ndarray] | None:
    """The keep masks of a padded batch's dropout sites, one bool array per
    shape [B, T, ...] in `shapes`: False for a dropped entry or padding, each
    entry dropped with probability `ratio`. The sites draw in the order
    given, from one `BatchRng.uniforms` call. None when dropout is the
    identity: without an `rng` (not training) or at ratio 0. A mask takes an
    eighth of its factor's bytes; `dropout_factor` rebuilds the factor."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if rng is None or ratio == 0.0:
        return None
    return [u >= ratio for u in rng.uniforms(shapes)]


def dropout_factor(keep: np.ndarray, ratio: float) -> np.ndarray:
    """A `dropout_masks` mask's factor: 0 where dropped, 1/(1-ratio) where
    kept, the same bits wherever it is rebuilt."""
    return keep / (1.0 - ratio)


def _spent(g):
    raise RuntimeError("backward already ran through this node and freed what it saved; "
                       "build the graph again to differentiate it again")


def graph(root: Tensor) -> list[Tensor]:
    """The tensors reachable from `root` through `parents`, each once, in
    the order they were built (`seq`): every node after all its parents."""
    found = {id(root): root}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in found:
                found[id(p)] = p
                stack.append(p)
    return sorted(found.values(), key=operator.attrgetter("seq"))


def backward(root: Tensor, check_finite: bool = True):
    """Accumulate d(root)/d(node) into `.grad` of every node reachable from
    the scalar `root`, visiting the nodes of `graph(root)` newest first. A
    node is built after its parents, so each node's gradient is complete
    before it runs, and a gradient that reaches a tensor from several
    consumers is summed newest consumer first, whatever order a node lists
    its parents in.

    A graph is differentiated once. As soon as a node's gradients have
    reached its parents, its `backward_fn` is replaced by one that raises,
    which frees the arrays the node saved for its backward while the pass
    goes on, and its `.grad` is dropped. `parents` stay, and the node stays
    a non-leaf. Leaves keep their gradients."""
    if root.values.size != 1:
        raise ShapeError(f"backward requires a scalar root, got shape {root.shape}")

    order = graph(root)
    root.grad = np.ones_like(root.values)
    for node in reversed(order):
        if node.backward_fn is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.backward_fn(node.grad)):
            if parent.grad is None:
                parent.grad = np.array(g)  # owned copy; bw outputs may alias inputs
            else:
                parent.grad += g
        node.backward_fn, node.grad = _spent, None  # frees what the closure saved, and the gradient

    if check_finite:
        for node in order:
            if node.backward_fn is None and node.grad is not None:
                if not np.all(np.isfinite(node.grad)):
                    raise NumericsError("non-finite gradient reached a leaf tensor")


def finite_difference_gradient(loss_fn: Callable[[], float], param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of `loss_fn` w.r.t. every element of `param`.

    Mutates `param.values` in place during probing and restores it. Serves as
    the independent oracle for `backward`; it never touches the graph.
    """
    grad = np.zeros_like(param.values)
    flat = param.values.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst relative disagreement, floored at unit scale for tiny gradients."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


class Rng(ISeedSequence):
    """Counter-based random stream with labeled sub-streams.

    The same seed always yields the same stream, and `substream(label)`
    derives an independent stream keyed by the label: adding a new consumer
    never perturbs existing ones. The stream is Philox keyed by the seed,
    `Generator(Philox(key=seed))`. An `Rng` is also a seed sequence that
    hands Philox that key (`generate_state`), so building the generator
    gathers no OS entropy. The generator is created on first draw, so
    derivation stays cheap.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = None

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The seed's low 64 bits as `n_words` words of `dtype`, least
        significant first, zero above: Philox asks for two uint64 words and
        takes them as its 128-bit key."""
        dtype = np.dtype(dtype)
        key = self.seed & ((1 << 64) - 1)
        return np.frombuffer(key.to_bytes(n_words * dtype.itemsize, "little"), dtype).copy()

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            # Philox keeps its seed sequence; `self` there would be a reference cycle
            self._gen = np.random.Generator(np.random.Philox(Rng(self.seed)))
        return self._gen

    def substream(self, label: str) -> "Rng":
        digest = hashlib.blake2b(f"{self.seed}/{label}".encode(), digest_size=8).digest()
        return Rng(int.from_bytes(digest, "little"))

    def normal(self, shape=(), sigma: float = 1.0) -> np.ndarray:
        return self.gen.normal(0.0, sigma, size=shape)

    def uniform(self, shape=()) -> np.ndarray:
        return self.gen.random(size=shape)

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high)."""
        out = self.gen.integers(low, high, size=shape)
        return int(out) if shape is None else out


class BatchRng:
    """The `Rng`s of a padded batch's examples, example b owning the first
    `lengths[b]` rows of its slot. Substreams are derived per example, and a
    draw of shape [B, T, ...] stacks each example's own [lengths[b], ...]
    draw, zero past it: every example sees the numbers it would see alone."""

    __slots__ = ("rngs", "lengths")

    def __init__(self, rngs: Sequence[Rng], lengths: Sequence[int]):
        self.rngs = list(rngs)
        self.lengths = lengths

    def substream(self, label: str) -> "BatchRng":
        return BatchRng([r.substream(label) for r in self.rngs], self.lengths)

    def uniforms(self, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
        """One padded uniform draw per shape [B, T, ...]: each example's
        generator fills its first `lengths[b]` rows of every draw in turn,
        as consecutive `Rng.uniform` calls would: the sites' one draw order."""
        out = [np.zeros(shape) for shape in shapes]
        for b, (rng, n) in enumerate(zip(self.rngs, self.lengths)):
            gen = rng.gen
            for u in out:
                gen.random(out=u[b, :n])
        return out


class ParamSpec(NamedTuple):
    """Schema leaf: a parameter's shape and initializer: "zeros" (default),
    "ones", or the standard deviation of a zero-mean normal drawn from the
    substream reached through the labels of `stream`."""

    shape: tuple[int, ...]
    init: float | str = "zeros"
    stream: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return math.prod(map(operator.index, self.shape))  # TypeError for a non-integer size

    def materialize(self, rng: Rng) -> Tensor:
        if isinstance(self.init, str):
            return (zeros if self.init == "zeros" else ones)(self.shape)
        for label in self.stream:
            rng = rng.substream(label)
        return Tensor(rng.normal(self.shape, sigma=self.init))


class ParamTree:
    """Base of the parameter dataclasses. A field holds a leaf (a `Tensor`,
    or a `ParamSpec` in a schema), a nested tree or a list of trees. Leaves
    are named by their field path, list items as `layer{i}`, and visited in
    field order."""

    def _fields(self, prefix: str):
        """Per field: its key, whether it is a list, its (name, value) items."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                yield f.name, True, [(f"{prefix}.layer{i}".lstrip("."), v) for i, v in enumerate(value)]
            else:
                yield f.name, False, [(f"{prefix}.{f.name}".lstrip("."), value)]

    def named(self, prefix: str = "") -> Iterator[tuple[str, object]]:
        for _, _, items in self._fields(prefix):
            for name, value in items:
                yield from value.named(name) if isinstance(value, ParamTree) else [(name, value)]

    def map(self, fn: Callable[[str, object], object], prefix: str = ""):
        """The same tree with every leaf replaced by `fn(name, leaf)`."""
        out = {}
        for key, is_list, items in self._fields(prefix):
            mapped = [v.map(fn, n) if isinstance(v, ParamTree) else fn(n, v) for n, v in items]
            out[key] = mapped if is_list else mapped[0]
        return type(self)(**out)


class FlatParams(NamedTuple):
    """A parameter tree's storage: every leaf's values are a view of one
    contiguous float64 buffer, in named order, so a whole-model update is a
    few ops over the buffer."""

    values: np.ndarray      # every parameter, flat, in named order
    leaves: list[Tensor]    # the parameters, in named order

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """A buffer of the same layout (gradients, moments) cut into one
        view per parameter, shaped like it, in named order."""
        return _cut(flat, [p.shape for p in self.leaves])


def _cut(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """`flat` cut into consecutive views of the given shapes: the layout of
    a `FlatParams` buffer."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


def flat_params(spec: ParamTree, fill: Callable[[str, ParamSpec, np.ndarray], None]
                ) -> tuple[ParamTree, FlatParams]:
    """The tree of `spec` with each leaf a `Tensor` over its slice of one
    parameter buffer, first written by `fill(name, leaf_spec, slice)`, and
    that storage."""
    named = list(spec.named())
    values = np.empty(sum(s.size for _, s in named))
    views = iter(_cut(values, [s.shape for _, s in named]))
    leaves: list[Tensor] = []

    def leaf(name: str, s: ParamSpec) -> Tensor:
        view = next(views)
        fill(name, s, view)
        leaves.append(Tensor(view))
        return leaves[-1]

    return spec.map(leaf), FlatParams(values, leaves)

"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Everything upstream (encoder, expert pools, losses) is built from the
primitives here. Graph construction is single-threaded; a node is only
recorded when gradients are both enabled and needed, so forward passes
through frozen parameters run as plain numpy. Likewise a backward rule
computes a parent's gradient only when that parent requires grad: frozen
weights, constants and masks never receive one.

Fused nodes with hand-written backward rules: `linear` (x @ Wᵀ + b),
`scores` (x @ Wᵀ), `attention` (multi-head scaled dot-product attention),
`lora` (a pool of mixed low-rank experts), `softmax` with a constant
additive bias (masking), and one node per training-loss term: `soft_ce`
(cross-entropy and prediction distillation), `lse_gap` (the label
contrast after its similarities: two masked log-sum-exps and their
mean), `unit_distance` (feature distillation), `masked_sums` (the router
loss over every pool) and `weighted_sum` (the weighted total). Their
values and gradients are bit-identical to the compositions of primitives
they replace; the loss nodes hand a parent its gradient in the parts and
order the chain did.

Invariant: no code writes into a `.grad` array in place. So
`accumulate_grad` keeps the first gradient it receives without a defensive
copy, although that array may also be another tensor's gradient (`add`
hands the same array to both operands). Only a gradient laid out other
than in C order (a transposed or broadcast view) is copied into C order, so
that the reductions and matmuls that read it sum in one fixed order.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import os
import sys
from typing import Callable, Sequence

import numpy as np


def _load_erf(special_dirs=None):
    """`scipy.special.erf`, loaded alone from its extension, `_special_ufuncs`,
    which links only the C and C++ runtimes; `scipy.special`'s `__init__`
    loads every extension, SciPy's own OpenBLAS among them (about 15 MB). It
    is loaded under its own name, so a later `import scipy.special` reuses it.
    A SciPy without it, or whose copy lacks `erf`, takes the package import."""
    name = "scipy.special._special_ufuncs"
    if special_dirs is None:
        special_dirs = [os.path.join(d, "special")
                        for d in importlib.util.find_spec("scipy").submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec("_special_ufuncs", special_dirs)
    if found is not None:
        module = sys.modules.get(name)
        if module is None:
            spec = importlib.util.spec_from_file_location(name, found.origin)
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        if hasattr(module, "erf"):
            return module.erf
    from scipy.special import erf
    return erf


erf = _load_erf()  # never pass where=: with SciPy 1.17.1 it then corrupts the heap or crashes

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Additive bias that masks an entry out of a softmax or log-sum-exp: exp()
# of it underflows to exactly 0.
MASK_BIAS = -1e30


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Raised on misuse of the backward graph (e.g. double backward)."""


class DegenerateVectorError(ValueError):
    """Raised when a vector is too short for a norm-dependent op."""


class NumericalError(ValueError):
    """Raised when a value that must be finite (input, loss, gradient) is not."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        self.grad = np.asarray(g, order="C") if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Reverse-mode pass from a scalar.

        A graph may be traversed once; a second call on the same loss
        raises GraphError (re-run the forward pass instead).
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._backward_done:
            raise GraphError("backward already ran on this graph; re-run the forward pass")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
        self._backward_done = True

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap `data`; record the node (and mark it as requiring grad) only
    when gradients are enabled and some parent requires grad. A recorded
    node's backward_fn must skip every parent that does not."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out.requires_grad = True
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of the broadcast operand."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _node(data, (a, b), bw)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU."""
    a = as_tensor(a)
    phi = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    data = a.data * phi

    def bw(g):
        local = phi + a.data * np.exp(-0.5 * a.data ** 2) * _INV_SQRT2PI
        a.accumulate_grad(g * local)

    return _node(data, (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def linear(x, weight, bias) -> Tensor:
    """x @ weightᵀ + bias as one node: x is [..., d_in], weight [d_out, d_in],
    bias [d_out]. The weight gradient is one GEMM over all leading rows of x."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    d_out, d_in = weight.shape
    if x.shape[-1] != d_in or bias.shape != (d_out,):
        raise ShapeError(f"linear shapes differ: x {x.shape}, weight {weight.shape}, "
                         f"bias {bias.shape}")
    data = np.matmul(x.data, weight.data.T)
    data += bias.data

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.matmul(g, weight.data))
        g2 = g.reshape(-1, d_out)
        if weight.requires_grad:
            weight.accumulate_grad(np.matmul(g2.T, x.data.reshape(-1, d_in)))
        if bias.requires_grad:
            bias.accumulate_grad(g2.sum(axis=0))

    return _node(data, (x, weight, bias), bw)


def scores(x, weight) -> Tensor:
    """x @ weightᵀ as one node: the dot products of x's rows [..., d] with the
    rows of weight [n, d]. The weight gradient is one matmul per leading
    index of x, summed over that axis."""
    x, weight = as_tensor(x), as_tensor(weight)
    if x.data.ndim < 2 or weight.data.ndim != 2 or x.shape[-1] != weight.shape[-1]:
        raise ShapeError(f"scores shapes differ: x {x.shape}, weight {weight.shape}")
    data = np.matmul(x.data, weight.data.T)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.matmul(g, weight.data))
        if weight.requires_grad:
            gt = np.matmul(x.data.swapaxes(-1, -2), g)
            weight.accumulate_grad(_unbroadcast(gt, weight.shape[::-1]).T)

    return _node(data, (x, weight), bw)


def attention(q, k, v, key_bias: np.ndarray, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q is [B, Sq, d] and k, v are [B, Sk, d], with Sq <= Sk when only some
    positions' outputs are needed; each is split into `num_heads` heads of
    d/num_heads dims. `key_bias` is a constant added to the
    [B, heads, Sq, Sk] scores before the softmax over keys (e.g. a large
    negative value on padded keys); it gets no gradient. Returns the context
    with heads merged back, [B, Sq, d]. A NaN score raises NumericalError.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    bsz, _, d = q.shape
    hd = d // num_heads

    def split(t):
        return t.reshape(bsz, t.shape[1], num_heads, hd).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(bsz, t.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(hd)
    att = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    att *= scale
    att += key_bias
    if np.isnan(att).any():
        raise NumericalError("attention received NaN scores")
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    data = merge(np.matmul(att, vh))

    def bw(g):
        gc = split(g)
        if v.requires_grad:
            v.accumulate_grad(merge(np.matmul(att.swapaxes(-1, -2), gc)))
        if not (q.requires_grad or k.requires_grad):
            return
        datt = np.matmul(gc, vh.swapaxes(-1, -2))
        ds = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
        ds *= scale
        if q.requires_grad:
            q.accumulate_grad(merge(np.matmul(ds, kh)))
        if k.requires_grad:
            k.accumulate_grad(merge(np.matmul(qh.swapaxes(-1, -2), ds).swapaxes(-1, -2)))

    return _node(data, (q, k, v), bw)


def lora(x, A, B, mix) -> Tensor:
    """A mixed pool of M low-rank experts as one node, sum_m mix[.., m] · x B_mᵀ A_mᵀ,
    with x [N, S, d], A [M, d, r], B [M, r, d] and mix [N, M] (per row) or
    [N, S, M] (per position). Two matmuls run all M experts: x goes down to
    the M·r rank space through the stacked B, each expert's r columns are
    scaled by its weight, and the stacked A maps the sum back up. Each weight
    gradient is one matmul per row of x, summed over rows."""
    x, A, B, mix = as_tensor(x), as_tensor(A), as_tensor(B), as_tensor(mix)
    M, d, r = A.shape
    if B.shape != (M, r, d) or x.data.ndim != 3 or x.shape[-1] != d or mix.shape[-1] != M:
        raise ShapeError(f"lora shapes differ: x {x.shape}, A {A.shape}, B {B.shape}, "
                         f"mix {mix.shape}")
    down = B.data.reshape(M * r, d)
    up = A.data.transpose(1, 0, 2).reshape(d, M * r)
    low = np.matmul(x.data, down.T)                               # [N, S, M*r]
    low4 = low.reshape(low.shape[:-1] + (M, r))
    w = mix.data.reshape(x.shape[0], -1, M, 1)                    # [N, 1|S, M, 1]
    scaled = (low4 * w).reshape(low.shape)
    data = np.matmul(scaled, up.T)

    def bw(g):
        if A.requires_grad:
            gup = _unbroadcast(np.matmul(scaled.swapaxes(-1, -2), g), (M * r, d))
            A.accumulate_grad(gup.reshape(M, r, d).transpose(0, 2, 1))
        g4 = np.matmul(g, up).reshape(low4.shape)
        if mix.requires_grad:
            mix.accumulate_grad(_unbroadcast(g4 * low4, w.shape).reshape(mix.shape))
        glow = (g4 * w).reshape(low.shape)
        if x.requires_grad:
            x.accumulate_grad(np.matmul(glow, down))
        if B.requires_grad:
            gdown = _unbroadcast(np.matmul(x.data.swapaxes(-1, -2), glow), (d, M * r))
            B.accumulate_grad(gdown.T.reshape(M, r, d))

    return _node(data, (x, A, B, mix), bw)


def take(a, indices, axis: int = 0) -> Tensor:
    """Gather along an axis, as np.take: an int index drops the axis, an
    integer array of any shape takes its place. Repeated indices accumulate
    their gradients."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    axis = axis % a.data.ndim
    data = np.take(a.data, idx, axis=axis)

    def bw(g):
        ga = np.zeros_like(a.data)
        g = np.moveaxis(g, list(range(axis, axis + idx.ndim)), list(range(idx.ndim)))
        np.add.at(np.moveaxis(ga, axis, 0), idx, g)
        a.accumulate_grad(ga)

    return _node(data, (a,), bw)


# ---------------------------------------------------------------------------
# reductions with stability guards


def softmax(a, axis: int = -1, bias: np.ndarray | None = None) -> Tensor:
    """Softmax of a + bias; the constant `bias` (e.g. a large negative value
    on masked entries) gets no gradient."""
    a = as_tensor(a)
    z = a.data if bias is None else a.data + bias
    if np.isnan(z).any():
        raise NumericalError("softmax received NaN input")
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a.accumulate_grad(data * (g - dot))

    return _node(data, (a,), bw)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def bw(g):
        gy = np.asarray(g)
        dims = tuple(range(gy.ndim - 1))
        if gain.requires_grad:
            gain.accumulate_grad((gy * xhat).sum(axis=dims))
        if bias.requires_grad:
            bias.accumulate_grad(gy.sum(axis=dims))
        if not x.requires_grad:
            return
        dxhat = gy * gain.data
        dx = inv / n * (n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        x.accumulate_grad(dx)

    return _node(data, (x, gain, bias), bw)


EPS_NORM = 1e-8


# ---------------------------------------------------------------------------
# loss terms: one node each, with the floating-point operations, forward and
# backward, of the primitive chain it replaced, in the same order


def soft_ce(logits, target: np.ndarray, cols=None, scale: float = 1.0) -> Tensor:
    """Mean over rows of -sum(target * log softmax(scale * logits[:, cols]));
    `target` rows are constant distributions over the `cols` (every column
    when None). A NaN input raises NumericalError."""
    logits = as_tensor(logits)
    x = logits.data if cols is None else np.take(logits.data, cols, axis=1)
    x = x * scale
    if np.isnan(x).any():
        raise NumericalError("soft_ce received NaN input")
    shifted = x - x.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    coef = -1.0 / target.shape[0]
    data = (logp * target).sum() * coef

    def bw(g):
        # in C order, as the chain's gradient arrays were (`accumulate_grad`),
        # so that the row sums add in one fixed order whatever target's layout
        glogp = np.asarray((g * coef) * target, order="C")
        gx = (glogp - np.exp(logp) * glogp.sum(axis=-1, keepdims=True)) * scale
        if cols is not None:
            full = np.zeros_like(logits.data)
            np.add.at(full, (slice(None), cols), gx)
            gx = full
        logits.accumulate_grad(gx)

    return _node(data, (logits,), bw)


def lse_gap(a, member: np.ndarray) -> Tensor:
    """Mean over the rows of a [B, n] of the log-sum-exp of the entries
    outside the constant bool mask `member` minus that of the entries in
    it, each over the row plus a masking bias (MASK_BIAS), shifted by its
    max."""
    a = as_tensor(a)

    def lse(bias):
        z = a.data + bias
        m = z.max(axis=-1, keepdims=True)
        e = np.exp(z - m)
        inner = e.sum(axis=-1)
        return np.log(inner) + np.squeeze(m, axis=-1), e, inner

    inside, e_in, sum_in = lse(np.where(member, 0.0, MASK_BIAS))
    outside, e_out, sum_out = lse(np.where(member, MASK_BIAS, 0.0))
    coef = 1.0 / a.shape[0]
    data = (outside + inside * -1.0).sum() * coef

    def bw(g):
        grow = g * coef
        a.accumulate_grad(np.expand_dims(grow / sum_out, -1) * e_out
                          + np.expand_dims((grow * -1.0) / sum_in, -1) * e_in)

    return _node(data, (a,), bw)


def unit_distance(x, ref: np.ndarray) -> Tensor:
    """Half the mean over the rows of x [B, d] of |x / |x| + ref|^2, with
    `ref` constant rows. A row of x with norm below EPS_NORM raises
    DegenerateVectorError. The gradient reaches x in three parts, as from
    the division by the norm and the two factors of x * x."""
    x = as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    if norm.min() < EPS_NORM:
        raise DegenerateVectorError(
            f"unit_distance: row norm below {EPS_NORM} (min |x|={norm.min():.3g})")
    diff = x.data / norm + ref
    coef = 0.5 / x.shape[0]
    data = (diff * diff).sum() * coef

    def bw(g):
        half = (g * coef) * diff
        gdiff = np.asarray(half + half, order="C")
        x.accumulate_grad(gdiff / norm)
        gnorm = _unbroadcast(-gdiff * x.data / (norm ** 2), norm.shape)
        gsquare = (gnorm * 0.5 / norm) * x.data
        x.accumulate_grad(gsquare)
        x.accumulate_grad(gsquare)

    return _node(data, (x,), bw)


def masked_sums(tensors: Sequence[Tensor], weights: Sequence[np.ndarray],
                scales: Sequence[float], coef: float) -> Tensor:
    """coef * sum_k scales[k] * sum(tensors[k] * weights[k]), with constant
    weights and scales; each tensor is summed over its last axis first."""
    data = None
    for t, w, c in zip(tensors, weights, scales):
        term = (t.data * w).sum(axis=-1).sum() * c
        data = term if data is None else data + term
    data = data * coef

    def bw(g):
        gterm = g * coef
        for t, w, c in zip(tensors, weights, scales):
            if t.requires_grad:
                t.accumulate_grad((gterm * c) * w)

    return _node(data, tuple(tensors), bw)


def weighted_sum(first, terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """first + weights[0] * terms[0] + weights[1] * terms[1] + ..., added
    left to right; `first` alone when `terms` is empty."""
    first = as_tensor(first)
    if not terms:
        return first
    data = first.data
    for t, w in zip(terms, weights):
        data = data + t.data * w

    def bw(g):
        if first.requires_grad:
            first.accumulate_grad(g)
        for t, w in zip(terms, weights):
            if t.requires_grad:
                t.accumulate_grad(g * w)

    return _node(data, (first, *terms), bw)


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per `Adam._update` call: the six arrays it streams over, 1.5 MB
# per block, fit in a core's 2 MB L2. The continual optimizer (18 708
# elements at the reference config) still updates in one call.
ADAM_BLOCK = 32768


class Adam:
    """Adam with bias correction; grads are cleared by step().

    Parameters and their first and second moments each live in one flat
    buffer, and every parameter's `.data` is a view into the parameter
    buffer: write into `p.data` in place, never rebind it. Every parameter
    needs a gradient at every step; step() raises GraphError, before it
    moves anything, if one has none. Parameters in `decay` receive
    decoupled L2 weight decay of strength `weight_decay` at each step.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.0, decay: Sequence[Tensor] = ()):
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.params: list[Tensor] = []
        self._spans: list[tuple[int, int]] = []
        self._decay = list(decay)
        self.set_params(params)

    def set_params(self, params: Sequence[Tensor]) -> None:
        """Manage exactly `params`, laid out in fresh flat buffers, with each
        `p.data` a view into them. A parameter this optimizer already had
        keeps its moments and a new one starts from zero; decay stays on the
        marked parameters that are still in the list."""
        params = list(params)
        old = [(p, self._m[lo:hi], self._v[lo:hi])
               for p, (lo, hi) in zip(self.params, self._spans)]
        n = sum(p.data.size for p in params)
        self._flat = np.zeros(n)
        self._m, self._v, self._g = np.zeros((3, n))  # m, v, the gathered gradient
        self._tmp_a, self._tmp_b = np.zeros((2, min(n, ADAM_BLOCK)))  # the update's scratch
        self._decay = [p for p in params if any(p is d for d in self._decay)]
        self.params, self._spans = params, []
        start = 0
        for p in params:
            stop = start + p.data.size
            view = self._flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            for q, m, v in old:
                if q is p:
                    self._m[start:stop], self._v[start:stop] = m, v
            self._spans.append((start, stop))
            start = stop

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise GraphError(f"Adam.step: parameter {i} (shape {p.shape}) has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        if self.weight_decay > 0.0:
            for p in self._decay:
                p.data -= self.lr * self.weight_decay * p.data
        for p, (lo, hi) in zip(self.params, self._spans):
            self._g[lo:hi].reshape(p.data.shape)[...] = p.grad
            p.grad = None
        n = self._flat.size
        for start in range(0, n, ADAM_BLOCK):
            self._update(start, min(start + ADAM_BLOCK, n), bc1, bc2)

    def _update(self, lo: int, hi: int, bc1: float, bc2: float) -> None:
        """In place over buffer range [lo, hi), with the rounding of
        m = b1·m + (1−b1)·g;  v = b2·v + (1−b2)·g·g;
        p −= lr·(m/bc1) / (sqrt(v/bc2) + eps).
        Elementwise, so the blocks a range is cut into change no bit."""
        p, m, v, g = (buf[lo:hi] for buf in (self._flat, self._m, self._v, self._g))
        a, b = self._tmp_a[:hi - lo], self._tmp_b[:hi - lo]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        a *= g
        v += a
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        p -= a


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               h: float = 1e-5, max_coords: int = 256,
               rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of f() against central differences.

    Samples at most `max_coords` coordinates per parameter (seeded RNG)
    and returns max |analytic - numeric| / max(1, |numeric|); a non-finite
    sampled gradient or difference raises NumericalError.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"h={h} outside [1e-7, 1e-3]")
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.grad = None
    loss = f()
    if np.isnan(loss.data).any():
        raise NumericalError("grad_check: f returned NaN")
    loss.backward()
    analytic = {id(p): (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for p in params}
    max_err = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        a_flat = analytic[id(p)].reshape(-1)
        for c in coords:
            orig = flat[c]
            with no_grad():
                flat[c] = orig + h
                up = float(f().data)
                flat[c] = orig - h
                down = float(f().data)
                flat[c] = orig
            numeric = (up - down) / (2.0 * h)
            if not np.isfinite([a_flat[c], numeric]).all():
                raise NumericalError(f"grad_check: gradient {a_flat[c]}, difference {numeric}")
            max_err = max(max_err, abs(a_flat[c] - numeric) / max(1.0, abs(numeric)))
    for p in params:
        p.grad = None
    return max_err

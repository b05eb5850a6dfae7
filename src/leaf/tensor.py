"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Everything upstream (encoder, expert pools, losses) is built from the
primitives here. Graph construction is single-threaded; a node is only
recorded when gradients are both enabled and needed, so forward passes
through frozen parameters run as plain numpy.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + g

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
                if id(p) not in seen and (p._backward_fn is not None or p.requires_grad):
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


def _needs_grad(*tensors: Tensor) -> bool:
    if not _grad_enabled:
        return False
    return any(t.requires_grad or t._backward_fn is not None for t in tensors)


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _needs_grad(*parents):
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
        a.accumulate_grad(_unbroadcast(g, a.shape))
        b.accumulate_grad(_unbroadcast(g, b.shape))

    return _node(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def bw(g):
        a.accumulate_grad(_unbroadcast(g / b.data, a.shape))
        b.accumulate_grad(_unbroadcast(-g * a.data / (b.data ** 2), b.shape))

    return _node(data, (a, b), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def bw(g):
        a.accumulate_grad(g * data)

    return _node(data, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def bw(g):
        a.accumulate_grad(g / a.data)

    return _node(data, (a,), bw)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def bw(g):
        a.accumulate_grad(g * 0.5 / data)

    return _node(data, (a,), bw)


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
# linear algebra / shape


def matmul(a, b) -> Tensor:
    """Batched matrix product of operands with at least 2 dims each; leading
    (batch) dims broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires operands of at least 2 dims: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def bw(g):
        a.accumulate_grad(_unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape))
        b.accumulate_grad(_unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape))

    return _node(data, (a, b), bw)


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def bw(g):
        a.accumulate_grad(np.transpose(g, inv))

    return _node(data, (a,), bw)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def bw(g):
        a.accumulate_grad(g.reshape(a.shape))

    return _node(data, (a,), bw)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        a.accumulate_grad(np.broadcast_to(gg, a.shape))

    return _node(data, (a,), bw)


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


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    if np.isnan(a.data).any():
        raise NumericalError("softmax received NaN input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a.accumulate_grad(data * (g - dot))

    return _node(data, (a,), bw)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    if np.isnan(a.data).any():
        raise NumericalError("log_softmax received NaN input")
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    sm = np.exp(data)

    def bw(g):
        gsum = np.asarray(g).sum(axis=axis, keepdims=True)
        a.accumulate_grad(g - sm * gsum)

    return _node(data, (a,), bw)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp; the max shift is treated as a constant."""
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    inner = tsum(exp(add(a, Tensor(-m))), axis=axis, keepdims=keepdims)
    shift = m if keepdims else np.squeeze(m, axis=axis)
    return add(log(inner), Tensor(shift))


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
        gain.accumulate_grad((gy * xhat).sum(axis=dims))
        bias.accumulate_grad(gy.sum(axis=dims))
        dxhat = gy * gain.data
        dx = inv / n * (n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        x.accumulate_grad(dx)

    return _node(data, (x, gain, bias), bw)


EPS_NORM = 1e-8


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction; grads are cleared by step().

    Parameters in `decay` receive decoupled L2 weight decay of strength
    `weight_decay` at each step.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.0, decay: Sequence[Tensor] = ()):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._decay_ids = {id(p) for p in decay}
        self.step_count = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.params}
        self._v = {id(p): np.zeros_like(p.data) for p in self.params}

    def add_param(self, p: Tensor) -> None:
        self.params.append(p)
        self._m[id(p)] = np.zeros_like(p.data)
        self._v[id(p)] = np.zeros_like(p.data)

    def replace_param(self, old: Tensor, new: Tensor) -> None:
        self.params = [p for p in self.params if p is not old]
        self._m.pop(id(old), None)
        self._v.pop(id(old), None)
        self._decay_ids.discard(id(old))
        self.add_param(new)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for p in self.params:
            g = p.grad
            if g is None:
                continue
            if self.weight_decay > 0.0 and id(p) in self._decay_ids:
                p.data -= self.lr * self.weight_decay * p.data
            m = self._m[id(p)]
            v = self._v[id(p)]
            m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p.grad = None


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               h: float = 1e-5, max_coords: int = 256,
               rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of f() against central differences.

    Samples at most `max_coords` coordinates per parameter (seeded RNG)
    and returns max |analytic - numeric| / max(1, |numeric|).
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
            err = abs(a_flat[c] - numeric) / max(1.0, abs(numeric))
            max_err = max(max_err, err)
    for p in params:
        p.grad = None
    return max_err

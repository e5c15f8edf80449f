"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operation set is deliberately small: exactly what the prototype model,
the adaptation losses, and source training need. Every op registers a
backward closure on the active tape; ``backward`` replays the tape in
reverse and writes total derivatives into ``Tensor.grad``. Gradients are
cross-checked against central finite differences in the test suite.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, DomainError, ShapeError

Array = np.ndarray

_NORM_FLOOR = 1e-12


class Tensor:
    """A dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _raise_item(t: Tensor):
    raise ContractError(f"item() requires a single-element tensor, got shape {t.shape}")


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class Tape:
    """Ordered record of executed ops for one forward/backward cycle.

    Used as a context manager: ops executed while the tape is active are
    recorded; ``backward`` replays them in strict reverse order. ``clear``
    drops all records and the gradients of every watched tensor, so a
    cleared tape yields zero gradient information.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[Array], Iterable[tuple[Tensor, Array]]]]] = []
        self._on_tape: set[int] = set()
        self._watched: list[Tensor] = []
        self._watched_ids: set[int] = set()

    def watch(self, tensor: Tensor) -> None:
        if tensor.requires_grad and id(tensor) not in self._watched_ids:
            self._watched_ids.add(id(tensor))
            self._watched.append(tensor)

    def _track(self, out: Tensor, inputs: Sequence[Tensor], backward_fn) -> None:
        for t in inputs:
            self.watch(t)
        self._on_tape.add(id(out))
        self._records.append((out, backward_fn))

    def includes(self, tensor: Tensor) -> bool:
        return id(tensor) in self._on_tape

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        for t in self._watched:
            t.grad = None
        self._records.clear()
        self._on_tape.clear()
        self._watched.clear()
        self._watched_ids.clear()

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("tape context exited out of order")
        stack.pop()


_LOCAL = threading.local()


def _tape_stack() -> list[Tape]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad or tape.includes(t) for t in inputs):
        tape._track(out, inputs, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every watched tensor.

    Watched tensors unreachable from the loss receive an explicit zero
    gradient. Re-running on the same tape overwrites, never accumulates.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    adjoints: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for out, fn in reversed(tape._records):
        g = adjoints.get(id(out))
        if g is None:
            continue
        for tensor, contribution in fn(g):
            prev = adjoints.get(id(tensor))
            adjoints[id(tensor)] = contribution if prev is None else prev + contribution
    for t in tape._watched:
        g = adjoints.get(id(t))
        t.grad = np.zeros_like(t.data) if g is None else np.array(g, dtype=np.float64)


# ---------------------------------------------------------------------------
# broadcasting helpers


def _broadcast_check(*tensors: Tensor) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(*(t.shape for t in tensors))
    except ValueError as exc:
        raise ShapeError(str(exc)) from None


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _expand_reduced(grad: Array, shape: tuple[int, ...], axis, keepdims: bool) -> Array:
    if axis is None:
        return np.broadcast_to(grad, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            grad = np.expand_dims(grad, a)
    return np.broadcast_to(grad, shape)


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def fn(g: Array):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return _record(out, (a, b), fn)


def transpose(x: Tensor) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")
    out = Tensor(x.data.T.copy())

    def fn(g: Array):
        return ((x, g.T),)

    return _record(out, (x,), fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def fn(g: Array):
        return ((x, g.reshape(x.shape)),)

    return _record(out, (x,), fn)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b)
    out = Tensor(a.data + b.data)

    def fn(g: Array):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _record(out, (a, b), fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b)
    out = Tensor(a.data - b.data)

    def fn(g: Array):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    return _record(out, (a, b), fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b)
    out = Tensor(a.data * b.data)

    def fn(g: Array):
        return (
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        )

    return _record(out, (a, b), fn)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b)
    out = Tensor(a.data / b.data)

    def fn(g: Array):
        return (
            (a, _unbroadcast(g / b.data, a.shape)),
            (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
        )

    return _record(out, (a, b), fn)


def scale(x, factor: float) -> Tensor:
    x = as_tensor(x)
    factor = float(factor)
    out = Tensor(x.data * factor)

    def fn(g: Array):
        return ((x, g * factor),)

    return _record(out, (x,), fn)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    z = x.data
    # split by sign so neither tail overflows
    pos = z >= 0
    s = np.empty_like(z)
    s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    s[~pos] = ez / (1.0 + ez)
    out = Tensor(s)

    def fn(g: Array):
        return ((x, g * s * (1.0 - s)),)

    return _record(out, (x,), fn)


def log(x) -> Tensor:
    x = as_tensor(x)
    if not (x.data > 0).all():
        raise DomainError("log requires strictly positive input")
    out = Tensor(np.log(x.data))

    def fn(g: Array):
        return ((x, g / x.data),)

    return _record(out, (x,), fn)


def clamp(x, lo: float, hi: float) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))
    # gradient passes only strictly inside (lo, hi); zero at and beyond bounds
    mask = (x.data > lo) & (x.data < hi)

    def fn(g: Array):
        return ((x, g * mask),)

    return _record(out, (x,), fn)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.data)
    out = Tensor(t)

    def fn(g: Array):
        return ((x, g * (1.0 - t * t)),)

    return _record(out, (x,), fn)


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def fn(g: Array):
        return ((x, _expand_reduced(g, x.shape, axis, keepdims).copy()),)

    return _record(out, (x,), fn)


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    count = x.data.size if axis is None else x.data.size // out.data.size

    def fn(g: Array):
        return ((x, _expand_reduced(g, x.shape, axis, keepdims) / count),)

    return _record(out, (x,), fn)


def reduce_max(x) -> Tensor:
    """Global maximum as a scalar; subgradient routes to the first occurrence."""
    x = as_tensor(x)
    flat_idx = int(np.argmax(x.data))
    out = Tensor(x.data.reshape(-1)[flat_idx])

    def fn(g: Array):
        gx = np.zeros_like(x.data)
        gx.reshape(-1)[flat_idx] = g
        return ((x, gx),)

    return _record(out, (x,), fn)


def reduce_min(x) -> Tensor:
    """Global minimum as a scalar; subgradient routes to the first occurrence."""
    x = as_tensor(x)
    flat_idx = int(np.argmin(x.data))
    out = Tensor(x.data.reshape(-1)[flat_idx])

    def fn(g: Array):
        gx = np.zeros_like(x.data)
        gx.reshape(-1)[flat_idx] = g
        return ((x, gx),)

    return _record(out, (x,), fn)


def softmax(logits) -> Tensor:
    """Row softmax of an n x C logit matrix, stabilized by max subtraction."""
    x = as_tensor(logits)
    if x.data.ndim != 2:
        raise ShapeError(f"softmax expects an n x C matrix, got {x.shape}")
    if not np.isfinite(x.data).all():
        raise DomainError("softmax requires finite logits")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def fn(g: Array):
        inner = (g * p).sum(axis=1, keepdims=True)
        return ((x, p * (g - inner)),)

    return _record(out, (x,), fn)


def topk_mean(x, k: int) -> Tensor:
    """Mean of the k largest entries along the last axis.

    Ties break toward the lowest index; each selected entry receives 1/k of
    the upstream gradient, everything else zero.
    """
    x = as_tensor(x)
    last = x.shape[-1] if x.data.ndim else 0
    if not 1 <= k <= last:
        raise ValueError(f"k must satisfy 1 <= k <= {last}, got {k}")
    if k == last:
        # selecting everything: identical to a plain mean, bit for bit
        out = Tensor(x.data.mean(axis=-1))

        def fn_mean(g: Array):
            return ((x, np.broadcast_to(g[..., None] / k, x.shape).copy()),)

        return _record(out, (x,), fn_mean)
    # stable argsort of the negated values keeps the lowest index first on ties
    order = np.argsort(-x.data, axis=-1, kind="stable")
    idx = order[..., :k]
    picked = np.take_along_axis(x.data, idx, axis=-1)
    out = Tensor(picked.mean(axis=-1))

    def fn(g: Array):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, g[..., None] / k, axis=-1)
        return ((x, gx),)

    return _record(out, (x,), fn)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Standardize each row over the last axis, then apply affine scale/shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"gamma/beta must have shape ({d},), got {gamma.shape}/{beta.shape}")
    if eps == 0.0 and d == 1:
        raise DomainError("layer_norm with d=1 and eps=0 divides by zero")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    sigma = np.sqrt(var + eps)
    if (sigma == 0.0).any():
        raise DomainError("layer_norm hit a zero-variance row with eps=0")
    xhat = (x.data - mu) / sigma
    out = Tensor(xhat * gamma.data + beta.data)

    def fn(g: Array):
        gxhat = g * gamma.data
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dx = (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        ) / sigma
        return ((x, dx), (gamma, dgamma), (beta, dbeta))

    return _record(out, (x, gamma, beta), fn)


def batch_norm(x, gamma, beta, eps: float = 1e-5, running: tuple[Array, Array] | None = None) -> Tensor:
    """Normalize each feature over the batch axis (axis 0) of an n x d matrix.

    With ``running`` given, the supplied (mean, var) are treated as constants
    and only x/gamma/beta receive gradients; otherwise current-batch moments
    are used and differentiated through.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm expects an n x d matrix, got {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"gamma/beta must have shape ({d},), got {gamma.shape}/{beta.shape}")
    if running is not None:
        mean, var = running
        sigma = np.sqrt(np.asarray(var, dtype=np.float64) + eps)
        xhat = (x.data - mean) / sigma
        out = Tensor(xhat * gamma.data + beta.data)

        def fn_fixed(g: Array):
            return (
                (x, g * gamma.data / sigma),
                (gamma, (g * xhat).sum(axis=0)),
                (beta, g.sum(axis=0)),
            )

        return _record(out, (x, gamma, beta), fn_fixed)

    if eps == 0.0 and x.shape[0] == 1:
        raise DomainError("batch_norm with a single row and eps=0 divides by zero")
    mu = x.data.mean(axis=0, keepdims=True)
    var = x.data.var(axis=0, keepdims=True)
    sigma = np.sqrt(var + eps)
    if (sigma == 0.0).any():
        raise DomainError("batch_norm hit a zero-variance feature with eps=0")
    xhat = (x.data - mu) / sigma
    out = Tensor(xhat * gamma.data + beta.data)

    def fn(g: Array):
        gxhat = g * gamma.data
        dx = (
            gxhat
            - gxhat.mean(axis=0, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=0, keepdims=True)
        ) / sigma
        return ((x, dx), (gamma, (g * xhat).sum(axis=0)), (beta, g.sum(axis=0)))

    return _record(out, (x, gamma, beta), fn)


def cosine_similarity(a, b) -> Tensor:
    """Row-wise cosine over the last axis; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"last-axis sizes disagree: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a.data, axis=-1)
    nb = np.linalg.norm(b.data, axis=-1)
    for label, norms in (("a", na), ("b", nb)):
        if (norms <= _NORM_FLOOR).any():
            row = np.unravel_index(int(np.argmin(norms)), norms.shape) if norms.ndim else ()
            raise DegenerateInputError(f"zero-norm row {row} in operand {label}")
    dot = np.einsum("...d,...d->...", a.data, b.data)
    denom = na * nb
    c = dot / denom
    out = Tensor(c)

    def fn(g: Array):
        af = np.broadcast_to(a.data, g.shape + (a.shape[-1],))
        bf = np.broadcast_to(b.data, g.shape + (b.shape[-1],))
        naf = np.broadcast_to(na, g.shape)[..., None]
        nbf = np.broadcast_to(nb, g.shape)[..., None]
        cf = c[..., None]
        ge = g[..., None]
        da = ge * (bf / (naf * nbf) - cf * af / (naf * naf))
        db = ge * (af / (naf * nbf) - cf * bf / (nbf * nbf))
        return ((a, _unbroadcast(da, a.shape)), (b, _unbroadcast(db, b.shape)))

    return _record(out, (a, b), fn)


def finite_difference_grad(f: Callable[[Tensor], float], params: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient estimate of a scalar function.

    ``params.data`` is perturbed in place one coordinate at a time and
    restored afterwards; ``f`` must be deterministic.
    """
    flat = params.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(params))
        flat[i] = orig - eps
        f_minus = float(f(params))
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return Tensor(grad.reshape(params.shape))

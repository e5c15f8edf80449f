"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operation set is deliberately small: exactly what the prototype model,
the adaptation losses, and source training need. Every op gives the active
tape one gradient function per input, kept only for an input that requires a
gradient or comes from a recorded op; ``backward`` calls the kept functions in
reverse and writes total derivatives into ``Tensor.grad``. A fused op, such as
``norm_tanh`` (a whole backbone layer) or, outside this module, the similarity
mapping and the binary entropy, computes its value in NumPy and records its
hand-written gradients in one record. Gradients are cross-checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, DomainError, ShapeError

Array = np.ndarray

_NORM_FLOOR = 1e-12
# variance floor of norm_tanh's standardization
NORM_EPS = 1e-5


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

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


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
        self._records: list[tuple[Tensor, list[tuple[Tensor, Callable[[Array], Array]]]]] = []
        self._on_tape: set[int] = set()
        # inputs that require grad, by id, in order of first use
        self._watched: dict[int, Tensor] = {}

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        for t in self._watched.values():
            t.grad = None
        self._records.clear()
        self._on_tape.clear()
        self._watched.clear()

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


def _record(out: Tensor, *pairs: tuple[Tensor, Callable[[Array], Array]]) -> Tensor:
    """Record ``out`` with those ``(input, grad)`` pairs whose input requires a gradient or is a
    recorded op's output; ``grad`` maps out's gradient to that input's. No pair left, no record."""
    tape = active_tape()
    kept = [(t, grad) for t, grad in pairs if tape is not None and (t.requires_grad or id(t) in tape._on_tape)]
    if kept:
        for t, _ in kept:
            if t.requires_grad:
                tape._watched.setdefault(id(t), t)
        tape._on_tape.add(id(out))
        tape._records.append((out, kept))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every watched tensor.

    Watched tensors unreachable from the loss receive an explicit zero
    gradient. Re-running on the same tape overwrites, never accumulates.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    adjoints: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for out, pairs in reversed(tape._records):
        g = adjoints.get(id(out))
        if g is None:
            continue
        for tensor, grad in pairs:
            prev = adjoints.get(id(tensor))
            adjoints[id(tensor)] = grad(g) if prev is None else prev + grad(g)
    for t in tape._watched.values():
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


# ---------------------------------------------------------------------------
# recording cores of the elementwise and reduction ops


def unary(x: Tensor, value, grad: Callable[[Array], Array]) -> Tensor:
    """Record an op of one input with output ``value`` whose input gradient is ``grad(g)``."""
    return _record(Tensor(value), (x, grad))


def _binary(a, b, op, ga, gb) -> Tensor:
    """Record ``op(a, b)`` with broadcasting; ``ga(g, x, y)`` and ``gb(g, x, y)`` give the
    gradients of a and b at the output shape, each summed back to its operand's."""
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b)
    return _record(
        Tensor(op(a.data, b.data)),
        (a, lambda g: _unbroadcast(ga(g, a.data, b.data), a.shape)),
        (b, lambda g: _unbroadcast(gb(g, a.data, b.data), b.shape)),
    )


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return _record(Tensor(a.data @ b.data), (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def transpose(x: Tensor) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")
    return unary(x, x.data.T.copy(), lambda g: g.T)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    return unary(x, x.data.reshape(shape), lambda g: g.reshape(x.shape))


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def scale(x, factor: float) -> Tensor:
    x = as_tensor(x)
    factor = float(factor)
    return unary(x, x.data * factor, lambda g: g * factor)


def log(x) -> Tensor:
    x = as_tensor(x)
    if not (x.data > 0).all():
        raise DomainError("log requires strictly positive input")
    return unary(x, np.log(x.data), lambda g: g / x.data)


def clamp(x, lo: float, hi: float) -> Tensor:
    x = as_tensor(x)
    # gradient passes only strictly inside (lo, hi); zero at and beyond bounds
    mask = (x.data > lo) & (x.data < hi)
    return unary(x, np.clip(x.data, lo, hi), lambda g: g * mask)


def reduce_sum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    value = x.data.sum(axis=axis)
    return unary(x, value, lambda g: np.broadcast_to(g if axis is None else np.expand_dims(g, axis), x.shape).copy())


def reduce_mean(x) -> Tensor:
    """Mean over every entry, as a scalar."""
    x = as_tensor(x)
    return unary(x, x.data.mean(), lambda g: np.broadcast_to(g, x.shape) / x.data.size)


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
    return unary(x, p, lambda g: p * (g - (g * p).sum(axis=1, keepdims=True)))


def topk_mean(x, k: int) -> Tensor:
    """Mean of the k largest entries along the last axis; the input must be finite.

    The value comes from k running maxima: each slice ``x[..., j]`` is inserted
    with ``np.maximum``/``np.minimum``, which move values and never round them.
    Summed from +0.0 in rank order, as NumPy's row mean sums fewer than 8 values,
    the value is the sorted top-k mean bit for bit up to k = 7 and within a few
    ULP of its pairwise sum beyond. Only the gradient needs the picks, so only
    ``backward`` finds them: every entry above the k-th largest, then those equal
    to it from the lowest index, as first-maximum ``argmax`` rounds would pick.
    Each pick gets 1/k of the gradient.
    """
    x = as_tensor(x)
    last = x.shape[-1] if x.data.ndim else 0
    if not 1 <= k <= last:
        raise ValueError(f"k must satisfy 1 <= k <= {last}, got {k}")
    if not np.isfinite(x.data).all():
        raise DomainError("topk_mean requires finite input")
    if k == last:
        # selecting everything: identical to a plain mean, bit for bit
        return unary(x, x.data.mean(axis=-1), lambda g: np.broadcast_to(g[..., None] / k, x.shape).copy())
    data = x.data
    top: list[Array] = []  # the running maxima, largest first
    for j in range(last):
        v = data[..., j]
        for r in range(min(j, k)):
            top[r], v = np.maximum(top[r], v), np.minimum(top[r], v)
        if j < k:
            top.append(v)
    total = 0.0
    for m in top:
        total += m
    kth = top[-1][..., None]

    def grad(g: Array) -> Array:
        picked = data >= kth
        if np.count_nonzero(picked) > g.size * k:
            # some row ties at its k-th largest: keep the ties of lowest index
            above = data > kth
            ties = np.cumsum(picked & ~above, axis=-1)
            picked &= above | (ties <= k - above.sum(axis=-1, keepdims=True))
        return np.where(picked, (g / k)[..., None], 0.0)

    return unary(x, total / k, grad)


def _once(fn: Callable[[Array], Array]) -> Callable[[Array], Array]:
    """``fn``, computed once per output gradient and shared by every gradient function that asks for it."""
    memo: list = [None, None]

    def shared(g: Array) -> Array:
        if memo[0] is not g:
            memo[:] = g, fn(g)
        return memo[1]

    return shared


def norm_tanh(h, w, gamma, beta, bias=None, norm: int | tuple[Array, Array] = -1) -> tuple[Tensor, Array]:
    """One backbone layer, ``tanh(norm(h @ w) * gamma + beta [+ bias])``, as one recorded op.

    ``norm`` standardizes z = h @ w with its own moments over an axis (-1 per
    row, as layer norm; 0 per feature over the batch, as batch norm), which the
    gradient differentiates through, or with constant running (mean, var).
    The steps are those of ``np.mean`` and ``np.var``, so the bits are those of
    the separate ops. Returns the output and the pre-norm z.
    """
    h, w, gamma, beta = as_tensor(h), as_tensor(w), as_tensor(gamma), as_tensor(beta)
    bias = None if bias is None else as_tensor(bias)
    if h.data.ndim != 2 or w.data.ndim != 2 or h.shape[1] != w.shape[0]:
        raise ShapeError(f"norm_tanh expects n x d and d x m matrices, got {h.shape} and {w.shape}")
    if any(t.shape != (w.shape[1],) for t in (gamma, beta, bias) if t is not None):
        raise ShapeError(f"gamma, beta and bias must have shape ({w.shape[1]},)")
    z = h.data @ w.data
    running = isinstance(norm, tuple)
    if running:
        xhat = z - norm[0]
        sigma = np.sqrt(np.asarray(norm[1], dtype=np.float64) + NORM_EPS)
    else:
        n = z.shape[norm]
        xhat = z - z.sum(axis=norm, keepdims=True) / n
        sigma = np.sqrt((xhat * xhat).sum(axis=norm, keepdims=True) / n + NORM_EPS)
    xhat /= sigma
    t = xhat * gamma.data
    t += beta.data
    if bias is not None:
        t += bias.data
    np.tanh(t, out=t)
    gt = _once(lambda g: g * (1.0 - t * t))
    colsum = _once(lambda g: gt(g).sum(axis=0))

    def standardize_grad(g: Array) -> Array:
        gx = gt(g) * gamma.data
        if running:
            return gx / sigma
        return (gx - gx.mean(axis=norm, keepdims=True) - xhat * (gx * xhat).mean(axis=norm, keepdims=True)) / sigma

    gz = _once(standardize_grad)
    return _record(
        Tensor(t),
        (h, lambda g: gz(g) @ w.data.T),
        (w, lambda g: h.data.T @ gz(g)),
        (gamma, lambda g: (gt(g) * xhat).sum(axis=0)),
        (beta, colsum),
        *([] if bias is None else [(bias, colsum)]),
    ), z


def _unit(x: Array, label: str) -> tuple[Array, Array]:
    """The rows of a matrix scaled to unit norm, and their norms; a DegenerateInputError on a zero-norm row."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if (norms <= _NORM_FLOOR).any():
        raise DegenerateInputError(f"zero-norm row {int(np.argmin(norms))} in operand {label}")
    return x / norms, norms


def unit_rows(a) -> Tensor:
    """Every row of an n x d ``a`` divided by its Euclidean norm."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"unit_rows expects an n x d matrix, got {a.shape}")
    ahat, na = _unit(a.data, "a")
    return unary(a, ahat, lambda g: (g - ahat * (g * ahat).sum(axis=1, keepdims=True)) / na)


def cosine_similarity(a, b) -> Tensor:
    """Cosine of every row of an n x d ``a`` with every row of an m x d ``b``: n x m."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_similarity expects n x d and m x d matrices, got {a.shape} and {b.shape}")
    bhat, nb = _unit(b.data, "b")
    return _cosine(a, bhat, b, nb)


def _cosine(a: Tensor, bhat: Array, b: Tensor | None = None, nb: Array | None = None) -> Tensor:
    """``cosine_similarity`` of ``a`` with the rows ``bhat`` of a ``b`` already scaled to unit norm;
    b's gradient is recorded only when ``b`` and its row norms ``nb`` are given."""
    ahat, na = _unit(a.data, "a")
    c = ahat @ bhat.T
    pairs = [(a, lambda g: (g @ bhat - ahat * (g * c).sum(axis=1, keepdims=True)) / na)]
    if b is not None:
        pairs.append((b, lambda g: (g.T @ ahat - bhat * (g * c).sum(axis=0)[:, None]) / nb))
    return _record(Tensor(c), *pairs)

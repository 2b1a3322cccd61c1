"""Minimal dense-array reverse-mode automatic differentiation.

Leaves (parameters and constants) are 2-D float64 matrices; an op's output
may take any shape (``[R, ΣN, hidden]`` states). Operations take the recording
:class:`Graph` as their first argument and append a tape entry holding the
inputs, the output, and a local backward rule; :func:`backward` replays the
tape in reverse insertion order, which makes gradient evaluation fully
deterministic. Passing ``graph=None`` runs the operation without recording
(pure forward evaluation, used by finite-difference checks and inference).

Every operation validates that its output is finite, so NaN/Inf problems
surface at the op that produced them rather than miles downstream.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ShapeError

__all__ = [
    "Tensor",
    "Graph",
    "constant",
    "parameter",
    "add",
    "sub",
    "scale",
    "hadamard",
    "sigmoid",
    "tanh",
    "relu",
    "matmul",
    "linear",
    "concat_rows",
    "slice_rows",
    "transpose",
    "backward",
    "global_grad_norm",
    "clip_global_norm",
    "zero_grads",
]


class Tensor:
    """Dense float64 array node, a 2-D matrix when made here (a leaf).

    ``grad`` is a same-shape accumulation buffer and exists only when
    ``requires_grad`` is set (i.e. for trainable leaves). Gradients of
    intermediate results live in the backward pass's own adjoint map and are
    never attached to the tensor.
    """

    __slots__ = ("values", "grad", "requires_grad", "name")

    def __init__(self, values, requires_grad: bool = False, name: str = ""):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensor must be 2-D, got array of shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericalError(f"non-finite values in tensor '{name or '<unnamed>'}'")
        self.values = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def item(self) -> float:
        if self.values.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" '{self.name}'" if self.name else ""
        return f"Tensor{tag}(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values, name: str = "") -> Tensor:
    return Tensor(values, requires_grad=False, name=name)


def parameter(values, name: str = "") -> Tensor:
    return Tensor(values, requires_grad=True, name=name)


class _Entry:
    __slots__ = ("name", "inputs", "output", "rule")

    def __init__(self, name, inputs, output, rule):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.rule = rule


class Graph:
    """Tape of recorded operations in execution (insertion) order.

    A graph stays valid as long as the value buffers of its input tensors
    are not mutated; optimizer steps therefore run only after the backward
    pass of the batch that produced the gradients, and each batch records a
    fresh graph. An op may reuse its saved buffers in its backward rule, so
    a graph is back-propagated once.
    """

    def __init__(self):
        self._entries: list[_Entry] = []
        self._produced: set[int] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, name: str, inputs: tuple[Tensor, ...], output: Tensor,
                rule: Callable[[np.ndarray], tuple]) -> None:
        self._entries.append(_Entry(name, inputs, output, rule))
        self._produced.add(id(output))


def _result(graph: Graph | None, name: str, inputs: tuple[Tensor, ...],
            out_values: np.ndarray, rule, checked: np.ndarray | None = None) -> Tensor:
    """The op's output, recorded if ``graph`` is given, after one finiteness
    check of ``checked`` (an op's intermediates and output in one array), or
    of the output itself."""
    if not np.isfinite(out_values if checked is None else checked).all():
        raise NumericalError(f"non-finite values produced by op '{name}'")
    out = Tensor.__new__(Tensor)
    out.values = out_values
    out.requires_grad = False
    out.grad = None
    out.name = ""
    if graph is not None:
        graph._record(name, inputs, out, rule)
    return out


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match")


# ---------------------------------------------------------------------------
# elementwise ops


def add(graph: Graph | None, a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    return _result(graph, "add", (a, b), a.values + b.values,
                   lambda g: (g, g))


def sub(graph: Graph | None, a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    return _result(graph, "sub", (a, b), a.values - b.values,
                   lambda g: (g, -g))


def scale(graph: Graph | None, a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _result(graph, "scale", (a,), a.values * factor,
                   lambda g: (g * factor,))


def hadamard(graph: Graph | None, a: Tensor, b: Tensor) -> Tensor:
    _same_shape("hadamard", a, b)
    av, bv = a.values, b.values
    return _result(graph, "hadamard", (a, b), av * bv,
                   lambda g: (g * bv, g * av))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # branch on sign so exp never overflows for |x| > 700
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(graph: Graph | None, a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.values)
    return _result(graph, "sigmoid", (a,), s,
                   lambda g: (g * s * (1.0 - s),))


def tanh(graph: Graph | None, a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    return _result(graph, "tanh", (a,), t,
                   lambda g: (g * (1.0 - t * t),))


def relu(graph: Graph | None, a: Tensor) -> Tensor:
    av = a.values
    return _result(graph, "relu", (a,), np.maximum(av, 0.0),
                   lambda g: (g * (av > 0.0),))


# ---------------------------------------------------------------------------
# linear algebra ops


def matmul(graph: Graph | None, a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions of {a.shape} @ {b.shape} do not match")
    av, bv = a.values, b.values
    return _result(graph, "matmul", (a, b), av @ bv,
                   lambda g: (g @ bv.T, av.T @ g))


def linear(graph: Graph | None, weight: Tensor, bias: Tensor, x: Tensor) -> Tensor:
    """Affine map ``weight @ x + bias``.

    ``x`` may have several columns; the bias column is broadcast across them
    and its gradient is the row-sum of the incoming gradient.
    """
    if weight.cols != x.rows:
        raise ShapeError(f"linear: weight {weight.shape} does not accept input {x.shape}")
    if bias.shape != (weight.rows, 1):
        raise ShapeError(f"linear: bias {bias.shape} does not match weight {weight.shape}")
    wv, xv = weight.values, x.values
    out = wv @ xv + bias.values
    return _result(graph, "linear", (weight, bias, x), out,
                   lambda g: (g @ xv.T, g.sum(axis=1, keepdims=True), wv.T @ g))


def concat_rows(graph: Graph | None, parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors along rows; all parts must share the column count."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat_rows: empty part list")
    ncols = parts[0].cols
    for p in parts[1:]:
        if p.cols != ncols:
            raise ShapeError(f"concat_rows: column counts differ ({parts[0].shape} vs {p.shape})")
    out = np.concatenate([p.values for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.rows for p in parts])

    def rule(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _result(graph, "concat_rows", parts, out, rule)


def slice_rows(graph: Graph | None, a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.rows):
        raise ShapeError(f"slice_rows: range [{start}, {stop}) invalid for shape {a.shape}")
    av = a.values

    def rule(g):
        buf = np.zeros_like(av)
        buf[start:stop] = g
        return (buf,)

    return _result(graph, "slice_rows", (a,), av[start:stop].copy(), rule)


def transpose(graph: Graph | None, a: Tensor) -> Tensor:
    return _result(graph, "transpose", (a,), a.values.T.copy(),
                   lambda g: (g.T,))


# ---------------------------------------------------------------------------
# backward pass and gradient utilities


def backward(graph: Graph, loss: Tensor) -> None:
    """Populate ``grad`` of every requires_grad tensor with d(loss)/d(tensor).

    Walks the tape in reverse insertion order. A tensor used several times
    receives the sum of all contributions; leaf gradients accumulate into
    the existing ``grad`` buffer (call :func:`zero_grads` between steps).
    A non-finite contribution raises, naming the op and a named input.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward: loss must be a 1x1 scalar, got {loss.shape}")
    if loss.requires_grad:
        loss.grad += 1.0
        return
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for entry in reversed(graph._entries):
        grad_out = adjoint.pop(id(entry.output), None)
        if grad_out is None:
            continue
        contribs = entry.rule(grad_out)
        for inp, contrib in zip(entry.inputs, contribs):
            if contrib is None:
                continue
            if not np.isfinite(contrib).all():
                of = f" of '{inp.name}'" if inp.name else ""
                raise NumericalError(f"non-finite gradient{of} in backward rule of op "
                                     f"'{entry.name}'")
            if inp.requires_grad:
                inp.grad += contrib
            elif id(inp) in graph._produced:
                acc = adjoint.get(id(inp))
                if acc is None:
                    adjoint[id(inp)] = np.array(contrib)
                else:
                    acc += contrib


def global_grad_norm(params: Sequence[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            flat = p.grad.ravel()
            total += float(flat @ flat)
    return float(np.sqrt(total))


def clip_global_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Rescale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Zero gradients pass through unchanged.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        if p.grad is not None:
            p.grad.fill(0.0)

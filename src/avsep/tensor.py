"""Dense tensors with reverse-mode automatic differentiation.

The computation graph is a dynamic tape. Nothing is on it by default:
parameters are plain data, and whoever differentiates sets
``requires_grad = True`` on the leaves it wants gradients for (the trainer
and the gradient harness do this for their own leaves). ``requires_grad``
is the one mark of the tape: an operation with a marked input returns a
marked tape node holding references to its parents and a closure that
propagates the upstream gradient; otherwise it returns plain data.
:func:`_accum` drops the gradient of an unmarked input, which most
backwards compute anyway; only the inputs of ``conv1d`` and ``q_op`` and
``gate``'s two inputs skip that work.
:meth:`Tensor.tape` states the walk, the op nodes a ``backward()`` runs in
its order; :meth:`Tensor.backward` consumes the tape as it walks it and
unmarks each node it walks, so differentiating again means running the
forward again.
It hands each backward its upstream gradient read-only, so a backward
that passes it on, whole or as a view, cannot make it an input's
``grad``: :func:`_accum` copies read-only gradients and keeps a new
buffer a backward made as the input's ``grad`` without copying it.
The tape is rebuilt on every forward pass, so weight sharing across
repeated applications of the same parameters needs no special handling:
gradients simply accumulate on the shared leaves.

``Tensor(data)`` rejects non-finite caller-supplied data. Two
constructors skip that scan: :func:`_node`, which builds op results,
and :meth:`Tensor.unscanned`, which wraps an array as a plain-data leaf
(the resampled input of ``q_op``'s conv, and every parameter
``avsep.model`` builds: drawn in place, or in the skeleton undefined
until a checkpoint load fills them).
Finiteness is checked at the boundaries instead (the file readers,
``save_wav``, the trainer's loss, Adam step and validation output, and
the metrics), each array by :func:`all_finite`.

Ops never write to their inputs' data; only the trainer updates its
parameters' data in place, between steps. ``ew_add``, ``ew_sub`` and
``ew_mul`` take operands of equal shape, or one 0-d operand against any
shape; any other pair, a size-1 operand of higher rank included, raises
:class:`GeometryError`, to catch wiring bugs early. Nothing here
resamples along time: ``avsep.nn.interp_resample`` does, ``avsep.nn.gate``
resamples its modulation to its input's frame count itself, inside its
one tape node, and ``avsep.nn.q_op`` resamples its input likewise.

:func:`finite_difference_grad` is the tape-free oracle of
:func:`avsep.checks.gradcheck`; both gradient oracles step by ``FD_EPS``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import GeometryError

FD_EPS = 1e-5  # the central-difference step of both gradient oracles

_WALKED = object()  # the _backward of a node that a backward() has consumed
_DONE = object()  # on Tensor.tape's stack: the node below it is ready to list
_new = object.__new__  # a Tensor without __init__'s copy, cast and scan


def all_finite(a: np.ndarray) -> bool:
    """``np.all(np.isfinite(a))`` for a float array, without its bool mask
    the size of ``a`` and without a warning. A NaN anywhere makes both
    reductions NaN, and an infinity is always the maximum or the minimum;
    neither reduction can overflow."""
    return a.size == 0 or bool(np.isfinite(np.maximum.reduce(a, axis=None))
                               and np.isfinite(np.minimum.reduce(a, axis=None)))


class Tensor:
    """A dense row-major array plus the tape bookkeeping for autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if not all_finite(arr):
            raise ValueError("non-finite values in tensor")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @staticmethod
    def unscanned(data: np.ndarray) -> Tensor:
        """A plain-data leaf over the array ``data`` itself: no copy, no
        cast and no finiteness scan. For arrays whose values are checked
        elsewhere or not read at all."""
        return _node(data, (), None)

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"

    def item(self) -> float:
        if self.size != 1:
            raise GeometryError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    # -- autodiff ------------------------------------------------------

    def tape(self) -> list[Tensor]:
        """The op nodes that ``backward()`` from this root runs, each once
        and after its parents, the root last: a depth-first post-order that
        enters a node's parents last to first. ``backward()`` runs them from
        the end, so this order fixes how a shared leaf's gradients are
        summed. Leaves run no backward and are not listed: a leaf root, or a
        root ``backward()`` has walked (plain data now), has an empty tape.
        A node that a ``backward()`` has consumed raises GeometryError."""
        if not self._parents:
            return []
        order: list[Tensor] = []
        seen = set()  # Tensor hashes by identity
        stack: list = [self]
        while stack:
            node = stack.pop()
            if node is _DONE:  # every op parent of the node below it is listed
                order.append(stack.pop())
            elif node not in seen:
                seen.add(node)
                stack.append(node)
                stack.append(_DONE)
                for p in node._parents:  # popped last to first
                    if p._parents:
                        if p not in seen:
                            stack.append(p)
                    elif p._backward is _WALKED:
                        raise GeometryError("backward() reaches a node of a tape that was walked already")
        return order

    def backward(self) -> None:
        """Seed d(self)/d(self)=1 and run the backward of each node of
        :meth:`tape`, root first; fan-out gradients sum into the leaves'
        own buffers. ``self`` must be scalar (size 1) and marked.
        Each node drops its mark, ``grad``, parents and closure once its
        backward has run, so the walk frees the tape as it goes: after the
        call only leaves hold a ``grad`` or a mark, and ``self`` is plain
        data. An unmarked root, or a tape that reaches a node of one walked
        already, raises :class:`GeometryError` before any ``grad`` changes."""
        if self.size != 1:
            raise GeometryError(f"backward() requires a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            raise GeometryError("backward() on a root off the tape: no marked leaf "
                                "reaches it, or its graph was walked already")
        nodes = self.tape()  # alone holds the tape now, and gives each node up in turn
        self.grad = np.ones_like(self.data)
        while nodes:
            node = nodes.pop()
            g = node.grad
            if g is not None:
                g.flags.writeable = False
                node._backward(g)
            node.requires_grad = False
            node.grad = None
            node._parents = ()
            node._backward = _WALKED


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad`` when ``t`` is marked. The first
    gradient is stored as it is when it is a writable, C-contiguous buffer
    of its own or a whole reshape of one, which is what a backward's fresh
    result is; anything else is copied: the read-only upstream gradient
    passed on (whole, to two inputs, or as a view), a read-only broadcast,
    a part of a larger buffer, or a non-contiguous array. A backward never
    hands one writable buffer to two inputs, nor one that anything else
    keeps."""
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)  # an op on a 0-d array returns a numpy scalar
    if t.grad is not None:
        t.grad += g
    elif (g.flags.writeable and g.flags.c_contiguous
          and (g.base is None or g.base.nbytes == g.nbytes)):
        t.grad = g
    else:
        t.grad = g.copy()


def _check_broadcast(a: Tensor, b: Tensor) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa and sb:
        raise GeometryError(f"shapes {sa} and {sb} differ and neither is 0-d")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The upstream gradient of an operand of ``shape``: ``g`` itself, or
    its sum for a 0-d operand."""
    return g if g.shape == shape else g.sum().reshape(())


def _node(out: np.ndarray, parents: tuple[Tensor, ...], back) -> Tensor:
    """The result of an op over the array ``out`` (an op on 0-d arrays
    wraps its numpy scalar first): a marked tape node over ``parents``
    with backward ``back`` when a parent is marked, else plain data. Not
    scanned for non-finite values; the boundaries check those."""
    t = _new(Tensor)
    t.data = out
    t.grad = None
    for p in parents:
        if p.requires_grad:
            t.requires_grad = True
            t._parents = parents
            t._backward = back
            return t
    t.requires_grad = False
    t._parents = ()
    t._backward = None
    return t


def ew_add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)

    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(np.asarray(a.data + b.data), (a, b), back)


def ew_sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)

    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _node(np.asarray(a.data - b.data), (a, b), back)


def ew_mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)

    def back(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(np.asarray(a.data * b.data), (a, b), back)


def scale(x: Tensor, c: float) -> Tensor:
    def back(g):
        _accum(x, g * c)

    return _node(np.asarray(x.data * c), (x,), back)


@np.errstate(over="ignore")  # as a decorator it builds no context object per call
def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` in a new buffer of ``x``'s dtype."""
    y = np.negative(x, out=np.empty_like(x))
    np.exp(y, out=y)
    y += 1
    return np.reciprocal(y, out=y)


def sigmoid(x: Tensor) -> Tensor:
    """``1 / (1 + exp(-x))`` in the input's dtype. Below about -88 at
    float32 (-709 at float64) ``exp(-x)`` overflows to inf and the result
    is exactly 0, where the true value is a denormal or smaller."""
    y = _sigmoid(x.data)

    def back(g):
        _accum(x, g * y * (1.0 - y))

    return _node(y, (x,), back)


def relu(x: Tensor) -> Tensor:
    def back(g):
        _accum(x, g * (x.data > 0))

    return _node(np.asarray(np.maximum(x.data, 0)), (x,), back)


def log(x: Tensor) -> Tensor:
    def back(g):
        _accum(x, g / x.data)

    return _node(np.asarray(np.log(x.data)), (x,), back)


def sum_all(x: Tensor) -> Tensor:
    def back(g):
        _accum(x, np.broadcast_to(g, x.shape))

    return _node(np.asarray(np.add.reduce(x.data, axis=None)), (x,), back)


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function, at float64, with
    step :data:`FD_EPS`.

    Independent oracle for the analytic backward pass; shares no code with
    the tape.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_EPS
        fp = float(f(x))
        flat[i] = orig - FD_EPS
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_EPS)
    return g

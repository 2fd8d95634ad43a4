"""Reverse-mode automatic differentiation on numpy arrays.

The substitute for PyTorch in this environment: a small, correct autograd
engine.  A :class:`Tensor` wraps an ``ndarray`` and records the backward
function of the op that produced it; :meth:`Tensor.backward` runs the
tape in reverse topological order.  Broadcasting is fully supported (the
gradient of a broadcast operand is summed back to its shape).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

Number = Union[int, float]


#: Whether new ops are recorded on the tape.  One flag for the process:
#: nothing in the repo trains on a second thread (the cluster driver
#: steps every job from one), so a caller that does must not share it.
_grad_enabled = True


class no_grad:
    """Context manager disabling tape recording (inference mode)."""

    def __enter__(self) -> None:
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Whether new ops are recorded on the tape."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An array with a gradient tape.

    Attributes:
        data: the underlying float64 ndarray.
        grad: accumulated gradient (same shape), or None.
        requires_grad: participate in autodiff.
    """

    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _grad_enabled
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward

    # -- basics ----------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The raw array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """A view of the data cut off from the tape."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # -- graph construction -------------------------------------------------------

    @staticmethod
    def _lift(value: Union["Tensor", np.ndarray, Number]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ g)

        return self._make(out_data, (self, other), backward)

    # -- elementwise functions ----------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return self._make(self.data * mask, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * 0.5 / out_data)

        return self._make(out_data, (self,), backward)

    # -- reductions -----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=True)
        mask = self.data == out_data
        # Split ties evenly so the gradient stays well-defined.
        mask = mask / mask.sum(axis=axis, keepdims=True)
        result = out_data if keepdims else out_data.squeeze(axis)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            if not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(grad * mask)

        return self._make(result, (self,), backward)

    # -- shape ops ---------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(g).reshape(self.data.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(np.asarray(g), inverse))

        return self._make(np.transpose(self.data, axes), (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.zeros_like(self.data)
            np.add.at(grad, key, np.asarray(g))
            self._accumulate(grad)

        return self._make(out_data, (self,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(padding, padding)] * 2
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            [slice(None)] * (self.ndim - 2)
            + [slice(padding, -padding), slice(padding, -padding)]
        )

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(g)[slices])

        return self._make(out_data, (self,), backward)

    # -- backprop ------------------------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so scalars need no argument).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        seed = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

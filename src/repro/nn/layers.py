"""Layers with manual forward/backward and per-sample gradients.

Every layer caches its forward inputs (unless called with
``cache=False``, the inference path, which keeps no batch arrays) and
implements ``backward(grad_out, per_sample=False)`` returning the
gradient with respect to its input.  When ``per_sample=True``,
parameter gradients are additionally recorded per example into
``Parameter.grad_sample`` with a leading batch axis — the contract
required by :class:`repro.privacy.dpsgd.DPSGD`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter, xavier_init


class Module:
    """Base class: parameter registry + gradient bookkeeping."""

    def parameters(self) -> list[Parameter]:
        """All trainable parameters, including those of sub-modules.

        Deduplicated by identity: shared encoders (the embedding store)
        may be reachable through several attributes but must receive
        exactly one optimizer update per step.
        """
        out: list[Parameter] = []
        seen: set[int] = set()

        def add(param: Parameter) -> None:
            if id(param) not in seen:
                seen.add(id(param))
                out.append(param)

        def walk(value) -> None:
            if isinstance(value, Parameter):
                add(value)
            elif isinstance(value, Module):
                for p in value.parameters():
                    add(p)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    walk(item)
            elif isinstance(value, dict):
                for item in value.values():
                    walk(item)

        for value in self.__dict__.values():
            walk(value)
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


class Linear(Module):
    """Affine map ``y = x W + b`` for 2-D inputs ``(batch, fan_in)``."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator,
                 bias: bool = True, name: str = "linear"):
        self.weight = Parameter(xavier_init(rng, fan_in, fan_out),
                                name=f"{name}.weight")
        self.bias = (Parameter(np.zeros(fan_out), name=f"{name}.bias")
                     if bias else None)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if cache:
            self._x = x
        y = x @ self.weight.value
        if self.bias is not None:
            y = y + self.bias.value
        return y

    def backward(self, grad_out: np.ndarray,
                 per_sample: bool = False) -> np.ndarray:
        x = self._x
        gw = x.T @ grad_out
        gw_sample = (np.einsum("bi,bo->bio", x, grad_out)
                     if per_sample else None)
        self.weight.accumulate(gw, gw_sample)
        if self.bias is not None:
            gb = grad_out.sum(axis=0)
            self.bias.accumulate(gb, grad_out.copy() if per_sample else None)
        return grad_out @ self.weight.value.T


class ReLU(Module):
    """Elementwise rectifier."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        mask = x > 0
        if cache:
            self._mask = mask
        return np.where(mask, x, 0.0)

    def backward(self, grad_out: np.ndarray,
                 per_sample: bool = False) -> np.ndarray:
        return np.where(self._mask, grad_out, 0.0)


class Embedding(Module):
    """Learnable lookup table mapping codes to d-dimensional vectors.

    Per-sample gradients are stored densely (``(batch, V, d)``) — fine
    for the modest domain sizes the sub-models train on; attributes with
    very large domains bypass embedding training entirely via the
    Gaussian-histogram fallback of §4.3.
    """

    #: Guard against accidentally materialising huge per-sample buffers.
    MAX_PER_SAMPLE_ROWS = 4096

    def __init__(self, num_values: int, dim: int, rng: np.random.Generator,
                 name: str = "embedding"):
        scale = 1.0 / np.sqrt(dim)
        self.table = Parameter(rng.normal(0.0, scale, size=(num_values, dim)),
                               name=f"{name}.table")
        self._idx: np.ndarray | None = None

    @property
    def num_values(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def forward(self, idx: np.ndarray, cache: bool = True) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if cache:
            self._idx = idx
        return self.table.value[idx]

    def backward(self, grad_out: np.ndarray,
                 per_sample: bool = False) -> None:
        idx = self._idx
        grad = np.zeros_like(self.table.value)
        np.add.at(grad, idx, grad_out)
        gs = None
        if per_sample:
            if self.num_values > self.MAX_PER_SAMPLE_ROWS:
                raise ValueError(
                    f"per-sample gradients for embedding with "
                    f"{self.num_values} rows would be too large; use the "
                    f"large-domain fallback instead"
                )
            batch = idx.shape[0]
            gs = np.zeros((batch, self.num_values, self.dim))
            gs[np.arange(batch), idx] = grad_out
        self.table.accumulate(grad, gs)
        return None  # embeddings are graph sources; no input gradient


class NumericEncoder(Module):
    """The paper's continuous-attribute transform (§2.3).

    ``z = B @ relu(A x + c) + d`` — a linear layer, a ReLU, and a second
    linear layer mapping a standardized scalar to the shared embedding
    dimension.  Standardization uses the *public* domain bounds
    (midpoint / quarter-width) rather than data moments, so it costs no
    privacy budget.
    """

    def __init__(self, dim: int, rng: np.random.Generator, low: float,
                 high: float, name: str = "numeric"):
        self.low = float(low)
        self.high = float(high)
        self.lin1 = Linear(1, dim, rng, name=f"{name}.lin1")
        self.act = ReLU()
        self.lin2 = Linear(dim, dim, rng, name=f"{name}.lin2")

    def standardize(self, x: np.ndarray) -> np.ndarray:
        """Map raw values into roughly [-2, 2] using public bounds."""
        mid = 0.5 * (self.low + self.high)
        scale = max((self.high - self.low) / 4.0, 1e-12)
        return (np.asarray(x, dtype=np.float64) - mid) / scale

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        z = self.standardize(x).reshape(-1, 1)
        h = self.act.forward(self.lin1.forward(z, cache), cache)
        return self.lin2.forward(h, cache)

    def backward(self, grad_out: np.ndarray,
                 per_sample: bool = False) -> None:
        g = self.lin2.backward(grad_out, per_sample)
        g = self.act.backward(g, per_sample)
        self.lin1.backward(g, per_sample)
        return None  # raw scalar input needs no gradient

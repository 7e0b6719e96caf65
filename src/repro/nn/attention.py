"""Scaled dot-product attention over context-attribute embeddings.

AimNet (§2.3) "relies on the attention mechanism to learn structural
dependencies between different attributes" and "uses the attention
weights to combine the representations of inputs into a vector
representation (the context vector) for the target attribute".

Given the stacked context embeddings ``E`` of shape ``(batch, m, d)``
(one d-dimensional embedding per context attribute), the layer computes

    s      = E q / sqrt(d)                (scores, per attribute)
    alpha  = softmax(s)                   (attention weights)
    ctx    = sum_m alpha_m * (E_m P)      (projected, mixed)

with a learnable query vector ``q`` (specific to the target attribute)
and projection matrix ``P``.  The attention weights are inspectable via
:meth:`last_weights` — the paper saves them alongside embeddings
(Algorithm 2, line 19).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax, softmax_backward
from repro.nn.layers import Module
from repro.nn.parameter import Parameter, xavier_init


class Attention(Module):
    """Single-query attention pooling of ``m`` context embeddings."""

    def __init__(self, dim: int, rng: np.random.Generator,
                 name: str = "attention"):
        self.dim = dim
        self.query = Parameter(rng.normal(0.0, 1.0 / np.sqrt(dim), size=dim),
                               name=f"{name}.query")
        self.proj = Parameter(xavier_init(rng, dim, dim),
                              name=f"{name}.proj")
        self._cache = None

    def forward(self, context: np.ndarray, cache: bool = True) -> np.ndarray:
        """``context``: (batch, m, d) -> context vector (batch, d).

        ``cache=False`` (inference) keeps none of the batch arrays that
        :meth:`backward` and :meth:`last_weights` read."""
        scale = 1.0 / np.sqrt(self.dim)
        scores = context @ self.query.value * scale          # (B, m)
        alpha = softmax(scores, axis=1)                      # (B, m)
        projected = context @ self.proj.value                # (B, m, d)
        ctx = np.einsum("bm,bmd->bd", alpha, projected)      # (B, d)
        if cache:
            self._cache = (context, alpha, projected, scale)
        return ctx

    def last_weights(self) -> np.ndarray:
        """Attention weights of the most recent forward pass (B, m)."""
        if self._cache is None:
            raise RuntimeError("forward() has not been called yet")
        return self._cache[1]

    def backward(self, grad_ctx: np.ndarray,
                 per_sample: bool = False) -> np.ndarray:
        """Return gradient w.r.t. the (batch, m, d) context input."""
        context, alpha, projected, scale = self._cache

        grad_alpha = np.einsum("bd,bmd->bm", grad_ctx, projected)
        grad_projected = alpha[:, :, None] * grad_ctx[:, None, :]

        # Projection matrix P: projected = context @ P.
        gp_sample = np.einsum("bmd,bme->bde", context, grad_projected)
        self.proj.accumulate(gp_sample.sum(axis=0),
                             gp_sample if per_sample else None)
        grad_context = grad_projected @ self.proj.value.T

        # Softmax and scores.
        grad_scores = softmax_backward(alpha, grad_alpha, axis=1) * scale
        gq_sample = np.einsum("bm,bmd->bd", grad_scores, context)
        self.query.accumulate(gq_sample.sum(axis=0),
                              gq_sample if per_sample else None)
        grad_context += grad_scores[:, :, None] * self.query.value[None, None, :]
        return grad_context

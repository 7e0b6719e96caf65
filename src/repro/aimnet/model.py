"""The discriminative sub-model ``M_{X,y}``.

Architecture (§2.3, following AimNet):

* context attributes ``X = S_:j`` are encoded to ``(batch, m, d)``;
* an :class:`~repro.nn.attention.Attention` layer pools them into a
  context vector ``(batch, d)``;
* **categorical target** — logits are scaled dot products between the
  context vector and the target attribute's value embeddings, plus a
  bias: ``logits = ctx E_y^T / sqrt(d) + b``;
* **numerical target** — a linear head outputs ``(mu', log sigma')`` in
  a standardized space derived from the public domain bounds; the model
  decodes predictions back to raw units.

The full forward/backward is hand-derived and covered by gradcheck
tests; backward supports per-sample gradients for DP-SGD.  Inference
(:meth:`AimNet.predict_proba`, :meth:`AimNet.predict_gaussian`) runs
one :data:`INFERENCE_TILE` of rows at a time, so its scratch arrays
stay tile-sized whatever the batch.  Rows with equal context values
share one conditional, so a caller may run the encoders and the
attention once per distinct context tuple (:meth:`AimNet.distinct_rows`)
and gather the results back to every row.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import Embedding, Linear, Module
from repro.nn.attention import Attention
from repro.nn.losses import cross_entropy_loss, gaussian_nll_loss
from repro.nn.parameter import Parameter
from repro.aimnet.store import EmbeddingStore

#: Rows per inference tile.  Pure scheduling: the embedding gathers,
#: the per-example attention products and the encoder and logit
#: products give every row the same bits in any batch of two or more
#: rows (``tests/test_aimnet.py`` pins this).
INFERENCE_TILE = 2048


class AimNet(Module):
    """Predicts ``target_attr`` from ``context_attrs``.

    Parameters
    ----------
    relation:
        The schema (domains of all attributes involved).
    context_attrs:
        Names of the context attributes ``X`` (at least one).
    target_attr:
        Name of the target attribute ``y``.
    dim:
        Shared embedding dimension ``d``.
    rng:
        Initialisation randomness.
    store:
        The :class:`EmbeddingStore` providing shared context encoders;
        a private store is created when omitted.
    """

    def __init__(self, relation, context_attrs, target_attr: str, dim: int,
                 rng: np.random.Generator, store: EmbeddingStore | None = None):
        if not context_attrs:
            raise ValueError("AimNet needs at least one context attribute")
        if target_attr in context_attrs:
            raise ValueError("target cannot also be context")
        self.relation = relation
        self.context_attrs = list(context_attrs)
        self.target_attr = target_attr
        self.dim = int(dim)
        self.store = store if store is not None else EmbeddingStore(dim, rng)

        self.encoders = {a: self.store.encoder_for(relation[a])
                         for a in self.context_attrs}
        self.attention = Attention(dim, rng, name=f"{target_attr}.attention")

        target = relation[target_attr]
        self.target_is_categorical = target.is_categorical
        if self.target_is_categorical:
            # The target embedding doubles as the output layer and is
            # registered in the store for reuse as a context encoder in
            # later sub-models (Algorithm 2 line 19).
            self.target_embedding: Embedding = self.store.encoder_for(target)
            self.out_bias = Parameter(np.zeros(target.domain.size),
                                      name=f"{target_attr}.out_bias")
            self.head = None
        else:
            self.target_embedding = None
            self.out_bias = None
            self.head = Linear(dim, 2, rng, name=f"{target_attr}.head")
            self._t_mid = 0.5 * (target.domain.low + target.domain.high)
            self._t_scale = max((target.domain.high - target.domain.low) / 4.0,
                                1e-12)
        self._cache = None

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def _encode_context(self, batch_cols: dict,
                        cache: bool = True) -> np.ndarray:
        """Stack per-attribute encodings into (batch, m, d)."""
        encoded = [self.encoders[a].forward(batch_cols[a], cache)
                   for a in self.context_attrs]
        return np.stack(encoded, axis=1)

    def forward(self, batch_cols: dict, cache: bool = True):
        """Run the model on a batch given as ``{attr: column}``.

        Returns logits ``(batch, |y|)`` for categorical targets or
        ``(mu_std, log_sigma_std)`` (standardized space) for numerical
        targets.  ``cache=False`` keeps none of the batch arrays
        :meth:`backward` would need.
        """
        context = self._encode_context(batch_cols, cache)
        ctx = self.attention.forward(context, cache)
        if self.target_is_categorical:
            if cache:
                self._cache = ("cat", ctx, 1.0 / np.sqrt(self.dim))
            return self._logits(ctx)
        out = self.head.forward(ctx, cache)
        if cache:
            self._cache = ("num", ctx)
        return out[:, 0], out[:, 1]

    def _logits(self, ctx: np.ndarray) -> np.ndarray:
        """Scaled dot products of the context vectors with the target
        embeddings, plus the bias: (batch, |y|)."""
        table = self.target_embedding.table.value
        return ctx @ table.T * (1.0 / np.sqrt(self.dim)) + self.out_bias.value

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad_out, per_sample: bool = False) -> None:
        """Backpropagate from the head's gradient to all parameters.

        ``grad_out`` is the gradient w.r.t. logits (categorical) or the
        stacked ``(batch, 2)`` gradient w.r.t. (mu_std, log_sigma_std).
        """
        kind = self._cache[0]
        if kind == "cat":
            _, ctx, scale = self._cache
            table = self.target_embedding.table.value
            grad_ctx = grad_out @ table * scale
            gt = np.einsum("bv,bd->vd", grad_out, ctx) * scale
            gt_sample = (np.einsum("bv,bd->bvd", grad_out, ctx) * scale
                         if per_sample else None)
            self.target_embedding.table.accumulate(gt, gt_sample)
            self.out_bias.accumulate(grad_out.sum(axis=0),
                                     grad_out.copy() if per_sample else None)
        else:
            _, ctx = self._cache
            grad_ctx = self.head.backward(grad_out, per_sample)
        grad_context = self.attention.backward(grad_ctx, per_sample)
        for m, attr in enumerate(self.context_attrs):
            self.encoders[attr].backward(grad_context[:, m, :], per_sample)

    # ------------------------------------------------------------------
    # Losses
    # ------------------------------------------------------------------
    def standardize_target(self, values: np.ndarray) -> np.ndarray:
        """Map raw numerical target values to the standardized space."""
        return (np.asarray(values, dtype=np.float64) - self._t_mid) / self._t_scale

    def loss_backward(self, batch_cols: dict, targets: np.ndarray,
                      per_sample: bool = False) -> np.ndarray:
        """Forward + loss + backward in one call; returns per-sample losses.

        Cross-entropy for categorical targets, Gaussian NLL (in
        standardized space) for numerical targets — Algorithm 2 line 10.
        """
        if self.target_is_categorical:
            logits = self.forward(batch_cols)
            losses, grad = cross_entropy_loss(logits, targets)
            self.backward(grad, per_sample)
            return losses
        mu, log_sigma = self.forward(batch_cols)
        t_std = self.standardize_target(targets)
        losses, g_mu, g_ls = gaussian_nll_loss(mu, log_sigma, t_std)
        self.backward(np.stack([g_mu, g_ls], axis=1), per_sample)
        return losses

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _context_tiles(self, batch_cols: dict, n: int):
        """Yield ``(lo, hi, ctx)``: the context vectors of rows
        ``[lo, hi)`` of the ``n``-row batch, one :data:`INFERENCE_TILE`
        at a time, cache-free.

        BLAS routes a 1-row product through another kernel (gemv) whose
        reduction order can drift an ulp from the gemm of a larger
        batch, so a 1-row tile (``n = 1``, or the last tile of
        ``n = 2049``) runs duplicated: ``ctx`` then has two rows, and a
        caller keeps the first ``hi - lo`` rows of its products.
        """
        for lo in range(0, n, INFERENCE_TILE):
            hi = min(lo + INFERENCE_TILE, n)
            rows = slice(lo, hi) if hi - lo > 1 else [lo, lo]
            tile = {a: np.asarray(batch_cols[a])[rows]
                    for a in self.context_attrs}
            context = self._encode_context(tile, cache=False)
            yield lo, hi, self.attention.forward(context, cache=False)

    def distinct_rows(self, batch_cols: dict):
        """``(rows, inverse)`` over the batch's distinct context tuples:
        ``rows`` holds one row index per distinct tuple and ``inverse``
        maps every row to its tuple's position in ``rows``.  ``None``
        when more than half the rows are distinct, where gathering
        would cost more than it saves.

        The key reads exactly what the encoders read: categorical codes
        in mixed radix by embedding size, numerical values by their
        float64 bit patterns (so ``0.0`` and ``-0.0`` stay apart),
        re-densified before the key would overflow int64.
        """
        n = len(batch_cols[self.context_attrs[0]])
        key = np.zeros(n, dtype=np.int64)
        radix = 1
        for a in self.context_attrs:
            encoder = self.encoders[a]
            if isinstance(encoder, Embedding):
                codes = np.asarray(batch_cols[a], dtype=np.int64)
                size = encoder.num_values
            else:
                values = np.asarray(batch_cols[a], dtype=np.float64)
                seen, codes = np.unique(values.view(np.int64),
                                        return_inverse=True)
                size = seen.shape[0]
            if radix * size > 2 ** 62:
                seen, key = np.unique(key, return_inverse=True)
                radix = seen.shape[0]
            key = key * size + codes
            radix *= size
        seen, inverse = np.unique(key, return_inverse=True)
        if 2 * seen.shape[0] > n:
            return None
        rows = np.empty(seen.shape[0], dtype=np.int64)
        rows[inverse] = np.arange(n)
        return rows, inverse

    def predict_proba(self, batch_cols: dict) -> np.ndarray:
        """Conditional distribution over the categorical target domain."""
        if not self.target_is_categorical:
            raise ValueError("predict_proba requires a categorical target")
        n = len(batch_cols[self.context_attrs[0]])
        probs = np.empty((n, self.out_bias.value.shape[0]))
        for lo, hi, ctx in self._context_tiles(batch_cols, n):
            probs[lo:hi] = softmax(self._logits(ctx), axis=1)[:hi - lo]
        return probs

    def predict_gaussian(self, batch_cols: dict,
                         inverse: np.ndarray | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (mu, sigma) of the numerical target, in raw units.

        With ``inverse`` (from :meth:`distinct_rows`), ``batch_cols``
        holds the distinct context tuples and the output has one row per
        entry of ``inverse``: the context vectors are computed once per
        tuple and gathered.  They are computed tile by tile, but the
        ``d x 2`` head runs once over all ``n`` gathered rows: its last
        bits depend on the batch size, so a tiled or deduplicated head
        could move draws.  It too runs a 1-row batch duplicated.
        """
        if self.target_is_categorical:
            raise ValueError("predict_gaussian requires a numerical target")
        k = len(batch_cols[self.context_attrs[0]])
        ctx = np.empty((k, self.dim))
        for lo, hi, tile in self._context_tiles(batch_cols, k):
            ctx[lo:hi] = tile[:hi - lo]
        if inverse is not None:
            ctx = ctx[inverse]
        n = ctx.shape[0]
        out = self.head.forward(ctx if n != 1 else ctx[[0, 0]],
                                cache=False)[:n]
        log_sigma_std = np.clip(out[:, 1], -6.0, 6.0)
        mu = out[:, 0] * self._t_scale + self._t_mid
        sigma = np.exp(log_sigma_std) * self._t_scale
        return mu, sigma

    def attention_weights(self, batch_cols: dict) -> np.ndarray:
        """Attention weights over context attributes for a batch."""
        self.forward(batch_cols)
        return self.attention.last_weights()

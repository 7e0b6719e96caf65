"""The staged ``fit -> fitted -> sample`` contract every backend obeys.

PR 4 split Kamino into ``Kamino.fit(table) -> FittedKamino`` plus free
post-processing draws; this module generalises that split into a
protocol the whole field of backends implements:

* :class:`Synthesizer` — an unfitted method bound to a budget
  ``(epsilon, delta)`` and a ``seed``.  :meth:`Synthesizer.fit` runs
  every budget-consuming phase once (recording each mechanism's share
  in a :class:`~repro.synth.ledger.BudgetLedger`) and returns a
* :class:`FittedSynthesizer` — the released artifact.
  :meth:`~FittedSynthesizer.sample` draws synthetic tables of any size
  at any seed without re-touching the private data or the budget;
  ``save``/``load`` persist the artifact (shared payload format, see
  :mod:`repro.synth.io`).

**Determinism contract.**  ``fit`` is a pure function of
``(table, constructor knobs)``; ``sample(n, seed)`` of
``(fitted state, n, seed)``.  ``seed=None`` resumes the rng exactly
where ``fit`` left it (the post-fit state rides on the artifact), so
``synth.fit_sample(table, n)`` — kept on every backend as the fused
convenience — is literally ``fit(table).sample(n)`` and bit-identical
to the historical fused implementations.

``trace`` threading mirrors the Kamino pipeline: ``fit`` phases are
timed via :meth:`repro.obs.trace.RunTrace.phase` (each backend names
its own phases), every draw appends a
:class:`~repro.obs.trace.SampleTrace` whose ``engine`` field is the
backend name, and tracing never touches an rng.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kamino import _draw_seed, _draw_size, _positive_int
from repro.schema.table import Table
from repro.synth.io import load_payload, save_payload
from repro.synth.ledger import BudgetLedger


#: Default rows per yielded chunk of the protocol-level
#: :meth:`FittedSynthesizer.sample_stream` fallback (matches Kamino's
#: ``STREAM_CHUNK_ROWS``).
DEFAULT_STREAM_CHUNK_ROWS = 65536


def sliced_chunks(table: Table, relation, n: int, chunk: int):
    """Yield ``table`` as contiguous row slices of ``chunk`` rows."""
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        yield Table(relation,
                    {a: table.column(a)[lo:hi] for a in relation.names},
                    validate=False)


class Synthesizer:
    """Base class of every registered synthesis backend.

    Parameters
    ----------
    epsilon, delta:
        The fit's total privacy budget.  Backends that cannot run
        non-privately (every baseline) declare
        ``supports_infinite_epsilon = False``; the registry substitutes
        a huge finite budget for ``epsilon=inf`` requests.
    seed:
        Randomness for the whole fit + default draw.

    Class attributes subclasses set:

    ``name``
        The registry key (``"privbayes"``, ``"kamino"``, ...).
    ``uses_dcs``
        Whether the constructor takes the dataset's denial constraints
        (only the constraint-aware backends: ``kamino``, ``cleaning``).
    ``supports_infinite_epsilon``
        Whether ``epsilon=math.inf`` is a valid non-private mode.
    """

    name: str = ""
    uses_dcs: bool = False
    supports_infinite_epsilon: bool = False
    #: The :class:`FittedSynthesizer` subclass :meth:`fit` returns
    #: (used by :func:`repro.synth.registry.load_fitted` to dispatch).
    fitted_cls: type | None = None

    @classmethod
    def fitted_class(cls) -> type:
        if cls.fitted_cls is None:
            raise NotImplementedError(
                f"{cls.__name__} does not declare its fitted class")
        return cls.fitted_cls

    def __init__(self, epsilon: float, delta: float = 1e-6, seed: int = 0):
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.seed = int(seed)

    def fit(self, table: Table, *, trace=None) -> "FittedSynthesizer":
        """Run the budget-consuming phases once; returns the artifact."""
        raise NotImplementedError

    def fit_sample(self, table: Table, n: int | None = None) -> Table:
        """Fused convenience: literally ``fit(table).sample(n)``.

        Bit-identical to the historical fused implementations — the
        post-fit rng state rides on the artifact and the default draw
        resumes it.
        """
        return self.fit(table).sample(n)


class FittedSynthesizer:
    """A fitted backend: free draws, a spend ledger, and persistence.

    Subclasses implement :meth:`_sample` (the draw given a resolved rng)
    plus the ``_model_state`` / ``_from_model_state`` pair for
    persistence; everything rng- and format-shaped lives here so the
    determinism and round-trip guarantees hold uniformly.
    """

    #: Registry key of the backend that produced this artifact.
    method: str = ""
    #: Whether :meth:`sample_stream` is a true bounded-memory stream
    #: (Kamino's chunked engine) or the default chunk-a-single-shot
    #: fallback.  Surfaced per model in the serve layer's
    #: ``GET /models`` so clients know which artifacts can stream
    #: arbitrarily large draws at flat memory.
    supports_native_stream: bool = False

    def __init__(self, relation, default_n: int, seed: int,
                 ledger: BudgetLedger | None = None, rng_state=None):
        self.relation = relation
        self.default_n = int(default_n)
        self.seed = int(seed)
        #: Every (mechanism, epsilon, delta) the fit spent.
        self.ledger = ledger if ledger is not None else BudgetLedger()
        #: Post-fit rng state; ``sample(seed=None)`` resumes it so the
        #: default draw reproduces the fused ``fit_sample`` exactly.
        self.rng_state = rng_state

    # -- drawing -------------------------------------------------------
    def _sampling_rng(self, seed: int | None) -> np.random.Generator:
        if seed is not None:
            return np.random.default_rng(seed)
        if self.rng_state is not None:
            rng = np.random.default_rng(0)
            rng.bit_generator.state = self.rng_state
            return rng
        return np.random.default_rng(self.seed)

    def sample(self, n: int | None = None, seed: int | None = None, *,
               trace=None) -> Table:
        """Draw ``n`` synthetic rows (default: the fitted input size).

        Pure post-processing: no private data, no budget.  The draw is
        a deterministic function of ``(fitted state, n, seed)``;
        ``seed=None`` resumes the post-fit rng state (repeated default
        draws are identical to each other and to the fused
        ``fit_sample``).  ``trace`` appends one
        :class:`~repro.obs.trace.SampleTrace` under the backend name
        and never changes the output.  ``n`` and ``seed`` must be
        non-negative integers, as for every backend's draw.
        """
        n_out = _draw_size(n, self.default_n)
        seed = _draw_seed(seed)
        run = None
        if trace is not None:
            run = trace.begin_sample(self.method, n_out, seed)
        start = time.perf_counter()
        table = self._sample(n_out, self._sampling_rng(seed))
        if run is not None:
            run.finish(time.perf_counter() - start)
        return table

    def _sample(self, n: int, rng: np.random.Generator) -> Table:
        raise NotImplementedError

    def sample_stream(self, n: int | None = None, seed: int | None = None,
                      chunk_rows: int | None = None, *, trace=None):
        """Draw ``n`` rows as an iterator of :class:`Table` chunks.

        Concatenating the chunks in order gives ``sample(n, seed)``
        (past one chunk, Kamino's native stream can differ in the last
        bits of numerical sub-model heads: see
        :meth:`repro.core.kamino.FittedKamino.sample_stream`).  The
        protocol-level default materializes one single-shot draw and
        slices it (bounded *output* granularity, not bounded peak
        memory); backends with a genuinely incremental draw override
        this and set :attr:`supports_native_stream` (Kamino's blocked
        engine streams at flat memory).  ``chunk_rows`` defaults to
        :data:`DEFAULT_STREAM_CHUNK_ROWS`.
        """
        n_out = _draw_size(n, self.default_n)
        seed = _draw_seed(seed)
        chunk = (DEFAULT_STREAM_CHUNK_ROWS if chunk_rows is None
                 else _positive_int(chunk_rows, "chunk_rows"))
        table = self.sample(n_out, seed, trace=trace)
        return sliced_chunks(table, self.relation, n_out, chunk)

    # -- persistence ---------------------------------------------------
    def _model_state(self) -> dict:
        """Backend-specific state (JSON scalars + numpy arrays only)."""
        raise NotImplementedError

    @classmethod
    def _from_model_state(cls, state: dict, relation, dcs,
                          common: dict) -> "FittedSynthesizer":
        raise NotImplementedError

    def save(self, path: str) -> None:
        """Persist the artifact as a ``repro.synth/1`` payload.

        The schema (and any DCs) are public inputs the caller already
        persists and must supply again to :meth:`load` — exactly the
        :meth:`FittedKamino.save <repro.core.kamino.FittedKamino.save>`
        contract.
        """
        save_payload(path, self.method, {
            "common": self._common_state(),
            "model": self._model_state(),
        })

    def _common_state(self) -> dict:
        return {
            "default_n": self.default_n,
            "seed": self.seed,
            "ledger": self.ledger.to_dict(),
            "rng_state": self.rng_state,
        }

    @classmethod
    def load(cls, path: str, relation, dcs=()) -> "FittedSynthesizer":
        """Reload an artifact written by :meth:`save`.

        ``relation`` (and ``dcs`` for constraint-aware backends) are
        the public inputs the model was fitted with.
        """
        method, state = load_payload(path)
        if cls.method and method != cls.method:
            raise ValueError(
                f"{path} holds a {method!r} model, not {cls.method!r}; "
                f"load it via repro.synth.load_fitted")
        common = state["common"]
        fitted = cls._from_model_state(state["model"], relation, dcs,
                                       common)
        apply_common(fitted, common)
        return fitted


def apply_common(fitted: FittedSynthesizer, common: dict) -> None:
    """Restore the protocol-level fields a ``save`` payload carries.

    Shared with backends that nest another artifact (``cleaning``) so
    the inner fitted round-trips through the same contract.
    """
    fitted.default_n = int(common["default_n"])
    fitted.seed = int(common["seed"])
    fitted.ledger = BudgetLedger.from_dict(common["ledger"])
    fitted.rng_state = _restore_rng_state(common["rng_state"])


def _restore_rng_state(state):
    """Round-trip a ``bit_generator.state`` dict through JSON."""
    if state is None:
        return None
    # PCG64 state dicts are {str: int | {str: int}}; JSON preserves
    # arbitrary-precision ints, so the tree survives verbatim.
    return state

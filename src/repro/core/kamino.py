"""Algorithm 1 — the end-to-end Kamino pipeline, as staged fit/sample.

    S   <- Sequencing(R, D, Phi)               (Algorithm 4, no budget)
    Psi <- SearchDParas(eps, delta, D, S)      (Algorithm 6, no budget)
    M   <- TrainModel(D*, S, D, Psi)           (Algorithm 2, DP)
    W   <- LearnWeight(D*, Phi, S, M, Psi)     (Algorithm 5, DP)
    D'  <- Synthesize(S, M, Phi, D, W)         (Algorithm 3, post-proc)

The first four lines touch the private instance and consume the privacy
budget; the last is pure post-processing.  The public API mirrors that
split:

* :class:`KaminoConfig` — a frozen, validated bag of every pipeline
  knob (structure optimisations, engine flags, ablation switches);
* :class:`Kamino` — binds a schema, the denial constraints, and a
  config; :meth:`Kamino.fit` runs the budget-consuming phases **once**
  and returns a
* :class:`FittedKamino` — the released model artifact.  Its
  :meth:`~FittedKamino.sample` / :meth:`~FittedKamino.sample_ar` draw
  synthetic instances of any size, at any seed, as often as wanted,
  without re-touching the private data or the budget; ``save``/``load``
  persist it (see :mod:`repro.core.model_io`) so a synthesis service
  can train on one machine and serve draws from many.

``Kamino.fit_sample`` remains as the one-shot convenience — it is
literally ``fit(table).sample(n)``.  :class:`Kamino` also applies the §4.3
structural optimisations (hyper-attribute grouping, large-domain
histogram fallback) and records the per-phase wall-clock profile that
Figure 7 reports.

Typical service shape::

    fitted = Kamino(relation, dcs, config=cfg).fit(private_table)
    fitted.save("model.npz")                  # budget spent: cfg.epsilon
    ...
    fitted = FittedKamino.load("model.npz", relation, dcs)
    small = fitted.sample(n=1_000,  seed=1)   # free post-processing
    large = fitted.sample(n=50_000, seed=2)   # still free
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.engine import (
    ENGINE_RNG_SPEC, NOISE_CHUNK, STREAM_CHUNK_ROWS, synthesize_engine,
    synthesize_stream,
)
from repro.core.hyper import HyperSpec
from repro.core.params import KaminoParams, search_dp_params
from repro.core.sampling import ar_sample
from repro.core.sequencing import (
    group_small_domains,
    large_domain_attributes,
    sequence_attributes,
)
from repro.core.training import ProbModel, train_model
from repro.core.weights import learn_dc_weights
from repro.faults import fault_point
from repro.schema.table import Table

_WEIGHT_ESTIMATORS = ("matrix", "capped")


def _non_negative_int(value, name: str) -> int:
    """``value`` as a non-negative integer (numpy integers included), or
    a :class:`ValueError` naming ``name``."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = -1
    if out < 0 or out != value:
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}")
    return out


def _positive_int(value, name: str) -> int:
    """``value`` as an integer >= 1, or a :class:`ValueError` naming
    ``name``."""
    out = _non_negative_int(value, name)
    if out < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return out


def _draw_size(n, default: int) -> int:
    """The row count of a draw: ``default`` for None, else ``n``."""
    return default if n is None else _non_negative_int(n, "n")


def _draw_seed(seed) -> int | None:
    """The seed of a draw: None (the fitted config's), else ``seed``."""
    return None if seed is None else _non_negative_int(seed, "seed")


class ConfigError(ValueError):
    """A :class:`KaminoConfig` field out of its valid range."""


@dataclass(frozen=True)
class KaminoConfig:
    """Every knob of the pipeline, validated once, immutable thereafter.

    Parameters
    ----------
    epsilon, delta:
        The end-to-end privacy budget.  ``epsilon=math.inf`` runs the
        non-private configuration (Figure 6's rightmost points).
    seed:
        Randomness seed for the whole pipeline.
    group_max_domain:
        Hyper-attribute grouping cap (``None`` disables grouping).
    large_domain_threshold:
        Domain size beyond which an attribute is modeled by an
        independent histogram (``None`` disables the fallback).
    parallel_training:
        Train sub-models without embedding reuse (Experiment 10).
    params_override:
        Callable mutating the searched :class:`KaminoParams` before
        training (e.g. to cap iterations in small-scale benchmarks);
        the accountant re-checks the budget after the override.  Being
        a callable it is consumed during :meth:`Kamino.fit` and is not
        part of the persisted model artifact.
    random_sequence:
        Ablation switch (Experiment 5's "RandSequence"): replace
        Algorithm 4 with a seeded random permutation.
    constraint_aware_sampling:
        Ablation switch (Experiment 5's "RandSampling"): when False the
        sampler ignores the DCs and draws i.i.d. tuples.
    weight_estimator:
        Soft-DC weight estimator: ``"matrix"`` (default, the paper's
        literal Algorithm 5) or ``"capped"`` (log-odds over capped
        violation indicators — better when the budget affords an
        informative release); see :mod:`repro.core.weights`.

    Draw scheduling (worker count, stream chunking) is not model
    state: it is an argument of each :meth:`FittedKamino.sample` /
    :meth:`~FittedKamino.sample_stream` call and never changes a cell.
    """

    epsilon: float
    delta: float = 1e-6
    seed: int = 0
    group_max_domain: int | None = None
    large_domain_threshold: int | None = 1000
    parallel_training: bool = False
    params_override: Callable[[KaminoParams], None] | None = None
    random_sequence: bool = False
    constraint_aware_sampling: bool = True
    weight_estimator: str = "matrix"

    def __post_init__(self):
        try:
            self._validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _validate(self) -> None:
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "seed",
                           _non_negative_int(self.seed, "seed"))
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.group_max_domain is not None and self.group_max_domain < 2:
            raise ValueError("group_max_domain must be >= 2 or None")
        if (self.large_domain_threshold is not None
                and self.large_domain_threshold < 1):
            raise ValueError("large_domain_threshold must be >= 1 or None")
        if (self.params_override is not None
                and not callable(self.params_override)):
            raise ValueError("params_override must be callable or None")
        if self.weight_estimator not in _WEIGHT_ESTIMATORS:
            raise ValueError(
                f"weight_estimator must be one of {_WEIGHT_ESTIMATORS}, "
                f"got {self.weight_estimator!r}")

    @property
    def private(self) -> bool:
        return math.isfinite(self.epsilon)

    def replace(self, **changes) -> "KaminoConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass
class KaminoResult:
    """Everything a run produces, for inspection and evaluation."""

    table: Table
    sequence: list[str]
    params: KaminoParams
    weights: dict[str, float]
    model: ProbModel | None = None
    #: Grouping spec the sampler used (trivial when grouping is off).
    hyper: HyperSpec | None = None
    #: Per-phase seconds: Seq. / Tra. / Vio.+DC.W. / Sam. (Figure 7).
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())


@dataclass
class FittedKamino:
    """A trained Kamino model: the releasable, budget-consumed artifact.

    Produced by :meth:`Kamino.fit`.  Holds the learned probabilistic
    data model, the DC weights, the schema sequence and structural
    specs, and the post-fit sampler randomness state — everything
    Algorithm 3 needs, and nothing that touches the private instance.
    Sampling from it is pure post-processing: every draw (any ``n``,
    any ``seed``, direct or accept-reject) is free under DP.
    """

    relation: object
    dcs: list
    config: KaminoConfig
    sequence: list[str]
    independent: list[str]
    hyper: HyperSpec
    params: KaminoParams
    weights: dict[str, float]
    model: ProbModel
    #: Input size; the default draw size of :meth:`sample`.
    default_n: int
    #: Seq./Tra./DC.W. seconds of the fit phases.
    fit_timings: dict[str, float] = field(default_factory=dict)
    #: Bit-generator state right after training.  No draw reads it: the
    #: artifact records it, and a fit resumed from a checkpoint must
    #: reproduce the uninterrupted fit's state exactly.
    sampling_state: dict | None = None
    #: Counter-rng spec of the engine (scheme + noise chunking),
    #: persisted with the model so reloaded artifacts replay their
    #: draws; None on v1 and early v2 artifacts, which draw under the
    #: default spec.
    rng_spec: dict | None = None
    #: Per-phase privacy-spend itemisation of the fit that produced
    #: this artifact (a :class:`repro.synth.ledger.BudgetLedger`;
    #: checkpoint-restored phases are marked ``resumed``).  Runtime
    #: record of the fit — not part of the persisted model format, so
    #: :meth:`load` leaves it ``None``.
    ledger: object | None = None
    #: Checkpoint stage this fit resumed from (``None`` for a fresh,
    #: uninterrupted fit).  Runtime-only, like ``ledger``.
    resumed_from: str | None = None

    @property
    def private(self) -> bool:
        return self.config.private

    # ------------------------------------------------------------------
    def _noise_key(self, seed) -> tuple[int, int]:
        """``(master, noise_chunk)`` of a draw: the counter-rng master
        seed (``seed``, or the fitted config's) and the noise chunking
        the artifact records."""
        spec = self.rng_spec or {}
        scheme = spec.get("scheme", "philox-cell")
        if scheme != "philox-cell":
            # Drawing with a different stream than the artifact
            # records would silently break draw replay.
            raise ValueError(
                f"model was fitted under rng scheme {scheme!r}, "
                f"which this version cannot reproduce")
        master = int(self.config.seed if seed is None else seed)
        return master, spec.get("chunk", NOISE_CHUNK)

    def _result(self, synthetic: Table, seconds: float) -> KaminoResult:
        timings = dict(self.fit_timings)
        timings["Sam."] = seconds
        return KaminoResult(table=synthetic, sequence=list(self.sequence),
                            params=self.params, weights=dict(self.weights),
                            model=self.model, hyper=self.hyper,
                            timings=timings)

    def sample(self, n: int | None = None, seed: int | None = None,
               workers: int | None = None, pool: str | None = None,
               trace=None) -> KaminoResult:
        """Draw a synthetic instance (Algorithm 3, post-processing).

        ``n`` defaults to the fitted input size; ``seed=None`` draws
        with the fitted config's seed, so repeated default draws are
        identical — pass distinct seeds for distinct draws.

        ``workers`` (default 1; ``0`` = auto from ``os.cpu_count()``,
        chosen per call) runs the group-disjoint sub-schedules of
        constrained columns in that many worker processes; every other
        column draws inline.  ``pool`` accepts ``None`` or
        ``"process"``, the one lane; the retired ``"thread"`` lane
        raises a :class:`ValueError`.

        **Determinism guarantees.**  For a given fitted model, the drawn
        instance is a pure function of ``(n, seed)``:

        * the engine keys every cell's noise off counter-based Philox
          streams, so ``workers`` and the engine's block size are pure
          scheduling knobs — any combination yields bit-identical
          output;
        * passing a ``trace`` (see below) never touches any rng: a
          traced draw is bit-identical to an untraced one.

        ``trace`` is an optional :class:`repro.obs.trace.RunTrace`; the
        draw appends one :class:`~repro.obs.trace.SampleTrace` with
        per-column wall-clock, engine lanes, block sizes, and
        violation-index probe counts.
        """
        n_out = _draw_size(n, self.default_n)
        seed = _draw_seed(seed)
        cfg = self.config
        workers = (1 if workers is None
                   else _non_negative_int(workers, "workers")
                   or os.cpu_count() or 1)
        if pool not in (None, "process"):
            retired = ("; the thread lane is retired"
                       if pool == "thread" else "")
            raise ValueError(f"pool must be None or 'process', got "
                             f"{pool!r}{retired}")
        master, chunk = self._noise_key(seed)
        sampled_dcs = self.dcs if cfg.constraint_aware_sampling else []
        run_trace = None
        if trace is not None:
            run_trace = trace.begin_sample("blocked", n_out, seed,
                                           workers=workers)
        start = time.perf_counter()
        synthetic = synthesize_engine(
            self.model, self.relation, sampled_dcs, self.weights,
            n_out, self.params, master, hyper=self.hyper,
            workers=workers, noise_chunk=chunk,
            trace=run_trace)
        seconds = time.perf_counter() - start
        return self._result(synthetic, seconds)

    def sample_stream(self, n: int | None = None, seed: int | None = None,
                      chunk_rows: int | None = None, *, trace=None):
        """Draw ``n`` rows as an iterator of bounded-memory table chunks.

        ``sample`` is the one-chunk call of the same draw driver, so a
        stream whose ``chunk_rows`` covers ``n`` yields exactly
        ``sample(n, seed).table``.  With more chunks the concatenation
        equals it bit for bit except in numerical columns drawn from a
        sub-model head, whose last bits depend on the batch size (see
        :func:`repro.core.engine.synthesize_stream`).  ``chunk_rows``
        defaults to ``STREAM_CHUNK_ROWS`` (65,536).  Peak memory holds
        one chunk plus the per-column constraint-index state, never the
        full ``n`` rows — this is the lane behind ``repro-kamino sample
        --out`` streaming n=10M draws straight to disk.

        ``trace`` (a :class:`repro.obs.trace.RunTrace`) gets one
        :class:`~repro.obs.trace.SampleTrace` (engine
        ``"blocked-stream"``) with per-column traces summed over the
        chunks, finished when the stream is drained; it never touches
        an rng.  Requires ``mcmc_m == 0`` (the refinement re-reads the
        whole instance); every DC shape streams.
        """
        n_out = _draw_size(n, self.default_n)
        seed = _draw_seed(seed)
        cfg = self.config
        chunk = (STREAM_CHUNK_ROWS if chunk_rows is None
                 else _positive_int(chunk_rows, "chunk_rows"))
        master, noise_chunk = self._noise_key(seed)
        sampled_dcs = self.dcs if cfg.constraint_aware_sampling else []
        run_trace = (None if trace is None
                     else trace.begin_sample("blocked-stream", n_out, seed))
        return synthesize_stream(
            self.model, self.relation, sampled_dcs, self.weights,
            n_out, self.params, master, hyper=self.hyper,
            chunk_rows=chunk, noise_chunk=noise_chunk, trace=run_trace)

    def sample_ar(self, n: int | None = None, seed: int | None = None,
                  max_tries: int = 300, trace=None) -> KaminoResult:
        """Accept-reject draw (the Experiment 6 sampler variant).

        The sampler reads one numpy stream, started at ``seed`` (or at
        ``config.seed + 1`` when ``seed`` is None).  ``max_tries`` (at
        least 1) caps the draws per cell.  ``trace`` records a run-level
        :class:`SampleTrace` (engine ``"ar"``, no per-column breakdown).
        """
        n_out = _draw_size(n, self.default_n)
        seed = _draw_seed(seed)
        max_tries = _positive_int(max_tries, "max_tries")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1 if seed is None else seed)
        sampled_dcs = self.dcs if cfg.constraint_aware_sampling else []
        run_trace = None
        if trace is not None:
            run_trace = trace.begin_sample("ar", n_out, seed)
        start = time.perf_counter()
        synthetic = ar_sample(
            self.model, self.relation, sampled_dcs, self.weights, n_out,
            self.params, rng, hyper=self.hyper, max_tries=max_tries)
        seconds = time.perf_counter() - start
        if run_trace is not None:
            run_trace.finish(seconds)
        return self._result(synthetic, seconds)

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the fitted model to a ``.npz`` file.

        Everything except the DCs and the schema round-trips — both are
        public inputs the caller already persists (see
        :mod:`repro.io`) and must supply again to :meth:`load`.
        """
        from repro.core.model_io import save_fitted
        save_fitted(path, self)

    @classmethod
    def load(cls, path: str, relation, dcs) -> "FittedKamino":
        """Reload a fitted model saved by :meth:`save`.

        ``relation`` and ``dcs`` are the same public schema and denial
        constraints the model was fitted with; constants in the DCs are
        bound to the schema here.
        """
        from repro.core.model_io import load_fitted
        payload = load_fitted(path, relation)
        bound = [dc.bind(relation) for dc in dcs]
        return cls(relation=relation, dcs=bound, config=payload["config"],
                   sequence=payload["sequence"],
                   independent=payload["independent"],
                   hyper=payload["hyper"], params=payload["params"],
                   weights=payload["weights"], model=payload["model"],
                   default_n=payload["default_n"],
                   fit_timings=payload["fit_timings"],
                   sampling_state=payload["sampling_state"],
                   rng_spec=payload["rng_spec"])


def _phase_epsilons(params: KaminoParams) -> tuple[float, float]:
    """Split the achieved end-to-end epsilon across the fit phases.

    The accountant converts one *composed* RDP curve (Theorem 1), so
    per-phase epsilons are an attribution, not independent guarantees:
    each mechanism family's share of the total RDP at the converting
    order ``best_alpha`` is applied pro-rata to ``achieved_epsilon``.
    Returns ``(training, weights)`` — training covers M1 (histogram
    releases) + M2 (DP-SGD), weights covers M3 (the violation-matrix
    release); the two sum to ``achieved_epsilon``.
    """
    eps = params.achieved_epsilon
    if not math.isfinite(eps) or eps <= 0:
        return 0.0, 0.0
    alpha = int(params.best_alpha)
    if not params.learn_weights or alpha < 2 or params.n <= 0:
        return eps, 0.0
    from repro.privacy.rdp import SgmCurves, kamino_curve
    curves = SgmCurves((alpha,))
    total_rdp = float(kamino_curve(
        curves, sigma_g=params.sigma_g, sigma_d=params.sigma_d,
        T=params.iterations, k=params.k, b=params.batch, n=params.n,
        learn_weights=True, sigma_w=params.sigma_w, L_w=params.L_w,
        n_hist=params.n_hist, n_submodels=params.n_submodels)[0])
    m3_rdp = float(curves.sgm(min(params.L_w / params.n, 1.0),
                              params.sigma_w)[0])
    share = m3_rdp / total_rdp if total_rdp > 0 else 0.0
    return eps * (1.0 - share), eps * share


class Kamino:
    """Constraint-aware differentially private data synthesizer.

    Binds the public inputs — ``relation`` (the schema) and ``dcs``
    (denial constraints, hardness flags set; constants in raw domain
    values are bound to the schema here) — to a :class:`KaminoConfig`.

    Two construction styles::

        Kamino(relation, dcs, config=KaminoConfig(epsilon=1.0, seed=3))
        Kamino(relation, dcs, 1.0, seed=3)     # keyword knobs

    The second forwards the keyword knobs into a ``KaminoConfig``,
    which rejects an unknown one with a ``TypeError``.
    Either way the knobs live on the frozen ``kamino.config``; derive a
    changed one with ``config.replace(...)``.

    :meth:`fit` runs the budget-consuming phases and returns a
    :class:`FittedKamino`; :meth:`fit_sample` / :meth:`fit_sample_ar`
    are the fused conveniences (``fit().sample()`` /
    ``fit().sample_ar()``).
    """

    __slots__ = ("relation", "dcs", "config")

    def __init__(self, relation, dcs, epsilon: float | None = None,
                 delta: float | None = None, *,
                 config: KaminoConfig | None = None, **knobs):
        if delta is not None:
            knobs["delta"] = delta
        if config is None:
            if epsilon is None:
                raise TypeError(
                    "Kamino() needs either epsilon=... or config=...")
            config = KaminoConfig(epsilon=epsilon, **knobs)
        elif epsilon is not None or knobs:
            given = ((["epsilon"] if epsilon is not None else [])
                     + sorted(knobs))
            raise TypeError(
                "config= is exclusive with epsilon and the individual "
                f"knob arguments (got {', '.join(given)})")
        self.relation = relation
        self.dcs = [dc.bind(relation) for dc in dcs]
        self.config = config

    @property
    def private(self) -> bool:
        return self.config.private

    # ------------------------------------------------------------------
    def fit(self, table: Table,
            weights: dict[str, float] | None = None,
            trace=None, checkpoint_dir: str | None = None) -> FittedKamino:
        """Run the budget-consuming phases on the private ``table``.

        Sequencing (Algorithm 4), parameter search (Algorithm 6), model
        training (Algorithm 2), and DC-weight learning (Algorithm 5) —
        everything that touches the private instance — happen here,
        once.  Pass known DC ``weights`` to skip Algorithm 5 (the
        paper's "known weights" setting of §4).  The returned
        :class:`FittedKamino` samples any number of instances for free.

        ``trace`` is an optional :class:`repro.obs.trace.RunTrace`; the
        four phases are timed under the canonical names ``sequencing``,
        ``params``, ``dp_sgd``, ``weights``.  Tracing never touches the
        pipeline rng, so a traced fit equals an untraced one.

        ``checkpoint_dir`` makes the fit crash-safe: after each phase an
        atomic, digest-verified checkpoint is written there (see
        :mod:`repro.core.checkpoint`), and a later ``fit`` over the same
        table/config resumes from the newest valid one instead of
        re-running — and re-*spending* — the completed phases.  The
        resumed fit restores the pipeline rng state, so its model, its
        draws, and its ``sampling_state`` are bit-identical to an
        uninterrupted fit; the returned artifact's ``ledger`` marks the
        restored phases' spends as ``resumed``.  Checkpoints carry
        DP-protected model state — guard the directory like the model
        artifact itself — and are cleared when the fit completes.

        A ``table`` with no rows raises ``ValueError``.
        """
        from repro.synth.ledger import BudgetLedger

        if table.n == 0:
            raise ValueError("cannot fit on an empty table: it has 0 rows")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        known_weights = weights
        ledger = BudgetLedger()

        ckpt = None
        restored = None
        if checkpoint_dir is not None:
            from repro.core.checkpoint import FitCheckpoint, fit_key
            ckpt = FitCheckpoint(checkpoint_dir,
                                 fit_key(cfg, table, known_weights))
            restored = ckpt.load_latest(self.relation)
        from repro.core.checkpoint import STAGES
        timings: dict[str, float] = dict(restored.timings) if restored \
            else {}
        if restored is not None:
            # Phases still to run consume the generator from exactly
            # where the interrupted fit left it — this is what makes the
            # resumed fit bit-identical to an uninterrupted one.
            rng.bit_generator.state = restored.rng_state

        def _done(stage: str) -> bool:
            return (restored is not None
                    and STAGES.index(restored.stage) >= STAGES.index(stage))

        def _phase(name: str):
            return trace.phase(name) if trace is not None else nullcontext()

        def _after_stage(stage: str, **state) -> None:
            """Checkpoint a freshly executed stage (skipped for restored
            ones — their checkpoint already exists and re-writing would
            reseal identical state for no benefit)."""
            if _done(stage):
                return
            if ckpt is not None:
                ckpt.save(stage, rng_state=rng.bit_generator.state,
                          timings=timings, **state)
            fault_point(f"fit.{stage}")

        # -- Sequencing (Algorithm 4) + structure ----------------------
        if _done("sequencing"):
            sequence = restored.sequence
            independent = restored.independent
            hyper = HyperSpec(self.relation, restored.hyper_groups)
        else:
            start = time.perf_counter()
            with _phase("sequencing"):
                if cfg.random_sequence:
                    sequence = list(self.relation.names)
                    np.random.default_rng(cfg.seed + 17).shuffle(sequence)
                else:
                    sequence = sequence_attributes(self.relation, self.dcs)
                independent = self._independent_attrs(sequence)
                hyper = self._build_hyper(sequence, independent)
            timings["Seq."] = time.perf_counter() - start
        _after_stage("sequencing", sequence=sequence,
                     independent=independent, hyper=hyper)

        # -- Parameter search (Algorithm 6) ----------------------------
        if _done("params"):
            params = restored.params
        else:
            with _phase("params"):
                learn_weights = known_weights is None and any(
                    not dc.hard for dc in self.dcs)
                n_hist = 1 + len(independent)
                n_submodels = max(
                    len(hyper.working_sequence) - 1 - len(independent), 0)
                if self.private:
                    params = search_dp_params(
                        cfg.epsilon, cfg.delta, hyper.working_relation,
                        hyper.working_sequence, table.n,
                        learn_weights=learn_weights, n_hist=n_hist,
                        n_submodels=n_submodels)
                else:
                    params = KaminoParams(
                        epsilon=math.inf, delta=cfg.delta, n=table.n,
                        k=len(hyper.working_sequence),
                        iterations=max(1, (2 * table.n) // 32),
                        learn_weights=learn_weights, n_hist=n_hist,
                        n_submodels=n_submodels)
                if cfg.params_override is not None:
                    cfg.params_override(params)
                    if self.private:
                        achieved, alpha = params.accounted_epsilon()
                        if achieved > cfg.epsilon * (1 + 1e-9):
                            raise ValueError(
                                f"params_override broke the budget: "
                                f"{achieved:.4f} > {cfg.epsilon}")
                        params.achieved_epsilon = achieved
                        params.best_alpha = alpha
        _after_stage("params", sequence=sequence, independent=independent,
                     hyper=hyper, params=params)

        eps_train, eps_weights = (_phase_epsilons(params) if self.private
                                  else (0.0, 0.0))

        # -- Model training (Algorithm 2) ------------------------------
        if _done("dp_sgd"):
            model = restored.model
        else:
            start = time.perf_counter()
            with _phase("dp_sgd"):
                working = hyper.encode_table(table)
                model = train_model(
                    working, hyper.working_relation, hyper.working_sequence,
                    params, rng, independent_attrs=independent,
                    parallel=cfg.parallel_training, private=self.private)
            timings["Tra."] = time.perf_counter() - start
        if self.private:
            ledger.spend("rdp:m1-histograms+m2-dp-sgd", eps_train,
                         cfg.delta, resumed=_done("dp_sgd"))
        _after_stage("dp_sgd", sequence=sequence, independent=independent,
                     hyper=hyper, params=params, model=model)

        # -- DC weights (Algorithm 5) -----------------------------------
        if _done("weights") and restored.weights is not None:
            weights = restored.weights
        else:
            start = time.perf_counter()
            with _phase("weights"):
                if known_weights is None:
                    weights = learn_dc_weights(table, self.dcs, sequence,
                                               params, rng,
                                               private=self.private,
                                               estimator=cfg.weight_estimator)
                else:
                    weights = dict(known_weights)
                    for dc in self.dcs:
                        weights.setdefault(dc.name, math.inf if dc.hard
                                           else params.weight_init)
            timings["DC.W."] = time.perf_counter() - start
        if self.private and params.learn_weights:
            ledger.spend("rdp:m3-dc-weights", eps_weights,
                         resumed=_done("weights"))
        _after_stage("weights", sequence=sequence, independent=independent,
                     hyper=hyper, params=params, model=model,
                     weights=weights)

        if ckpt is not None:
            # The fitted artifact supersedes the checkpoints; clearing
            # keeps the directory from resuming a *completed* fit.
            ckpt.clear()

        return FittedKamino(
            relation=self.relation, dcs=list(self.dcs), config=cfg,
            sequence=sequence, independent=independent, hyper=hyper,
            params=params, weights=weights, model=model,
            default_n=table.n, fit_timings=timings,
            sampling_state=rng.bit_generator.state,
            rng_spec=dict(ENGINE_RNG_SPEC), ledger=ledger,
            resumed_from=restored.stage if restored is not None else None)

    def fit_sample(self, table: Table, n: int | None = None,
                   weights: dict[str, float] | None = None) -> KaminoResult:
        """Fused convenience: ``fit(table).sample(n)``.

        ``n`` defaults to the input size; pass known DC ``weights`` to
        skip Algorithm 5.  Prefer :meth:`fit` + repeated
        :meth:`FittedKamino.sample` when more than one draw is needed —
        the training cost (and the privacy budget) is paid only once.
        """
        return self.fit(table, weights=weights).sample(n)

    def fit_sample_ar(self, table: Table, n: int | None = None,
                      weights: dict[str, float] | None = None,
                      max_tries: int = 300) -> KaminoResult:
        """The Experiment 6 variant: accept-reject sampling instead of
        direct target-distribution sampling."""
        return self.fit(table, weights=weights).sample_ar(
            n, max_tries=max_tries)

    # ------------------------------------------------------------------
    def _independent_attrs(self, sequence) -> list[str]:
        if self.config.large_domain_threshold is None:
            return []
        independent = large_domain_attributes(
            self.relation, self.config.large_domain_threshold)
        # The first attribute is already histogram-modeled.
        return [a for a in independent if a != sequence[0]]

    def _build_hyper(self, sequence, independent) -> HyperSpec:
        if self.config.group_max_domain is None:
            return HyperSpec.trivial(self.relation, sequence)
        # Independent attributes must stay singleton (they are sampled
        # from standalone histograms, not sub-models).
        groups = []
        for group in group_small_domains(self.relation, sequence,
                                         self.config.group_max_domain):
            if any(a in independent for a in group) and len(group) > 1:
                groups.extend([[a] for a in group])
            else:
                groups.append(group)
        return HyperSpec(self.relation, groups)

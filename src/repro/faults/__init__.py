"""Deterministic fault injection for chaos testing.

Production code calls :func:`fault_point` at the places where the real
world fails — worker processes, artifact reads, stream writes, cache
fills, registry loads.  When no injector is installed the call is a
single ``None`` check, so shipping the hooks costs nothing.  When one
*is* installed (programmatically via :func:`install` or through the
``REPRO_FAULTS`` environment variable) each named site counts its hits
and fires its configured action at a deterministic hit index, which is
what lets the chaos suite assert exact recovery behaviour instead of
hoping a race shows up.

Spec grammar (comma-separated, whitespace ignored)::

    site=action[:arg][@after][xTIMES]

    engine.worker=kill              kill the worker process on hit 1
    registry.load=sleep:0.5         sleep 500 ms on every load
    stream.write=enospc@3           raise ENOSPC on the 3rd write
    model_io.read=error@1x2         raise FaultInjected on hits 1-2

Actions:

``kill``
    ``os._exit(3)`` — simulates a worker process dying mid-task.  Only
    meaningful at sites that run inside pool workers.
``sleep:<seconds>``
    Blocks for the given time — simulates a slow load / slow disk.
``enospc``
    Raises ``OSError(errno.ENOSPC)`` — simulates disk exhaustion.
``error``
    Raises :class:`FaultInjected` — simulates an unreadable/corrupt
    artifact or any other hard failure at the site.

``@after`` (default 1) is the 1-based hit index at which the fault
starts firing; ``xTIMES`` (default 1) is how many consecutive hits
fire; ``x*`` fires forever.  Counters are per-injector and guarded by
a lock, so concurrent server threads hit deterministic indices.
Forked pool workers inherit a *copy* of the counters, which gives
"first hit in any worker" semantics for ``kill`` — exactly what the
self-healing tests need.

Known sites (grep for ``fault_point(`` to confirm):

========================  ====================================================
``engine.worker``         inside process-pool worker tasks (kill target)
``fit.<stage>``           after each fit checkpoint is persisted
``model_io.read``         before parsing a model/checkpoint npz
``model_io.save``         before the atomic replace of a model save
``stream.write``          before each chunk write in ``write_table_stream``
``cache.put``             before the draw cache commits an entry
``registry.load``         before the serve registry loads an artifact
========================  ====================================================
"""

from __future__ import annotations

import errno
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field

ENV_VAR = "REPRO_FAULTS"

_ACTIONS = ("kill", "sleep", "enospc", "error")


class FaultInjected(RuntimeError):
    """Raised by an ``error`` action at an armed fault point."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed site: what fires, when, and how often."""

    site: str
    action: str
    arg: float | None = None
    after: int = 1
    times: float = 1  # math.inf for "x*"

    def fires_at(self, hit: int) -> bool:
        return self.after <= hit < self.after + self.times


_RHS = re.compile(
    r"^(?P<action>[a-z_]+)"
    r"(?::(?P<arg>[0-9.]+))?"
    r"(?:@(?P<after>\d+))?"
    r"(?:x(?P<times>\d+|\*))?$")


def parse_spec(text: str) -> list[FaultSpec]:
    """Parse the ``REPRO_FAULTS`` grammar into :class:`FaultSpec` list."""
    specs: list[FaultSpec] = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(f"fault spec {clause!r}: expected site=action")
        site, _, rhs = clause.partition("=")
        match = _RHS.match(rhs.strip())
        if match is None or match["action"] not in _ACTIONS:
            raise ValueError(
                f"fault spec {clause!r}: unknown action; expected "
                f"action[:arg][@after][xTIMES] with an action in "
                f"{', '.join(_ACTIONS)}")
        times: float = 1
        if match["times"]:
            times = math.inf if match["times"] == "*" \
                else int(match["times"])
        arg = float(match["arg"]) if match["arg"] else None
        if match["action"] == "sleep" and arg is None:
            raise ValueError(f"fault spec {clause!r}: sleep needs :seconds")
        specs.append(FaultSpec(
            site=site.strip(), action=match["action"], arg=arg,
            after=int(match["after"] or 1), times=times))
    return specs


@dataclass
class FaultRecord:
    """One fired fault, kept on the injector for assertions."""

    site: str
    action: str
    hit: int


class FaultInjector:
    """Counts hits per site and fires the matching spec's action."""

    def __init__(self, specs: str | list[FaultSpec]):
        if isinstance(specs, str):
            specs = parse_spec(specs)
        self._specs: dict[str, list[FaultSpec]] = {}
        for spec in specs:
            self._specs.setdefault(spec.site, []).append(spec)
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()
        self.fired: list[FaultRecord] = []

    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)

    def hit(self, site: str) -> None:
        specs = self._specs.get(site)
        with self._lock:
            count = self._hits.get(site, 0) + 1
            self._hits[site] = count
            live = None
            if specs:
                for spec in specs:
                    if spec.fires_at(count):
                        live = spec
                        break
                if live is not None:
                    self.fired.append(
                        FaultRecord(site=site, action=live.action, hit=count))
        if live is None:
            return
        self._fire(live, site)

    @staticmethod
    def _fire(spec: FaultSpec, site: str) -> None:
        if spec.action == "kill":
            os._exit(3)
        if spec.action == "sleep":
            time.sleep(spec.arg or 0.0)
            return
        if spec.action == "enospc":
            raise OSError(errno.ENOSPC,
                          f"No space left on device [injected at {site}]")
        raise FaultInjected(f"injected fault at {site}")


_ACTIVE: FaultInjector | None = None


def install(specs: str | list[FaultSpec]) -> FaultInjector:
    """Arm an injector process-wide; returns it for later assertions."""
    global _ACTIVE
    injector = specs if isinstance(specs, FaultInjector) else \
        FaultInjector(specs)
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Disarm fault injection; ``fault_point`` returns to zero-cost."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    return _ACTIVE


def fault_point(site: str) -> None:
    """Hook called from production code; no-op unless armed."""
    injector = _ACTIVE
    if injector is not None:
        injector.hit(site)


class injected:
    """Context manager arming a spec for the duration of a test."""

    def __init__(self, specs: str | list[FaultSpec]):
        self.injector = FaultInjector(specs) \
            if not isinstance(specs, FaultInjector) else specs

    def __enter__(self) -> FaultInjector:
        install(self.injector)
        return self.injector

    def __exit__(self, *exc) -> None:
        uninstall()


_env_spec = os.environ.get(ENV_VAR)
if _env_spec:
    install(_env_spec)

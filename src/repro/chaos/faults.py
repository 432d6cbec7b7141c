"""Deterministic fault schedules: what goes wrong, where, and when.

A :class:`FaultSchedule` answers one question at every *faultable decision
point* in a run — "does a fault fire here?" — in one of two modes:

* **seeded**: decisions are drawn from a private ``random.Random(seed)``
  stream against the rates in a :class:`FaultConfig`.  Every fault that
  fires is recorded as a :class:`FaultEvent`.
* **scripted**: decisions replay an explicit list of
  :class:`FaultEvent`\\ s, matched by ``(site, seq)``.

The two modes compose into reproducibility: a failing seeded run's
recorded events (:meth:`FaultSchedule.script`) replayed as a scripted
schedule hit the *same* decision points and inject the *same* faults, so
the run reproduces byte-identically — the property the chaos runner's
shrinker and repro scripts are built on.

Decision points are identified by a *site* (one of :data:`SITES`) and a
per-site sequence number that advances on **every** consultation, fault
or not.  Because the simulation itself is deterministic, the k-th
consultation of a site is the same physical event in every run of the
same workload, which is what makes ``(site, seq)`` a stable address.
Sites, kinds, rates, counters and arguments are stated once, in
:data:`FAULTS`; everything else here and in the injector reads it.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.errors import ChaosError

__all__ = ["FAULTS", "SITES", "STANDARD_RATES", "FaultEvent", "FaultKind",
           "FaultConfig", "FaultSchedule"]


def _real(arg) -> bool:
    return isinstance(arg, numbers.Real) and not isinstance(arg, bool)


class FaultArg(NamedTuple):
    """What a kind's ``arg`` is: how a seeded schedule draws it, which
    scripted values are legal, and how a refusal names them."""

    draw: Callable[[random.Random, "FaultConfig"], Any]
    admits: Callable[[Any], bool]
    what: str


NO_ARG = FaultArg(lambda rng, cfg: None, lambda arg: arg is None, "no arg")
#: Extra delay in ns (``delay``; the duplicate's offset for ``dup``).
NS = FaultArg(
    lambda rng, cfg: round(rng.uniform(cfg.delay_ns_min,
                                       cfg.delay_ns_max), 1),
    lambda arg: _real(arg) and math.isfinite(arg) and arg >= 0,
    "a finite real >= 0")
#: A fraction picking among the live choices (a processor for
#: ``crash``/``evac``, a payload byte for ``corrupt``) — a fraction, not an
#: index, so a schedule stays meaningful as processors fail.
FRACTION = FaultArg(lambda rng, cfg: round(rng.random(), 6),
                    lambda arg: _real(arg) and 0 <= arg < 1,
                    "a real in [0, 1)")


class FaultKind(NamedTuple):
    """One row of :data:`FAULTS`."""

    kind: str
    rate: str          # the FaultConfig field it is drawn at
    counter: str       # the FaultInjector counter applying it bumps
    arg: FaultArg


#: site -> its kinds, in draw order.  A site is a decision point the
#: runtimes publish on the hook bus; the injector subscribes one ``on_*``
#: method per site that applies its kinds.
FAULTS: Dict[str, tuple] = {
    # a faultable message leaves Cluster.send
    "send": (FaultKind("drop", "drop_rate", "dropped", NO_ARG),
             FaultKind("delay", "delay_rate", "delayed", NS),
             FaultKind("dup", "dup_rate", "duplicated", NS),
             FaultKind("reorder", "reorder_rate", "reordered", NO_ARG)),
    # a migration is about to start: veto it before any state moves
    "migrate": (FaultKind("abort", "migrate_abort_rate",
                          "migrations_vetoed", NO_ARG),),
    # a thread image arrives: the destination refuses, the image ships home
    "mig_delivery": (FaultKind("bounce", "migrate_bounce_rate",
                               "migrations_bounced", NO_ARG),),
    # a checkpoint blob is about to hit the simulated disk
    "ckpt": (FaultKind("io_error", "ckpt_error_rate", "ckpt_io_errors",
                       NO_ARG),
             FaultKind("corrupt", "ckpt_corrupt_rate", "ckpt_corrupted",
                       FRACTION)),
    # a coordinated checkpoint barrier completed: fail or drain a processor
    "barrier": (FaultKind("crash", "crash_rate", "crashes", FRACTION),
                FaultKind("evac", "evac_rate", "evacuations", FRACTION)),
}

#: The faultable decision sites.
SITES = tuple(FAULTS)
#: ``(site, kind)`` -> its row.
KINDS = {(site, row.kind): row for site, rows in FAULTS.items()
         for row in rows}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: ``kind`` fired at decision point ``(site, seq)``.

    The repr is valid Python — a printed schedule pastes straight back
    into a scripted :class:`FaultSchedule` (see
    :meth:`ChaosRunner.repro_script`).

    ``arg`` is the kind's parameter, of the sort its :data:`FAULTS` row
    names (:data:`NO_ARG`, :data:`NS` or :data:`FRACTION`).
    """

    site: str
    seq: int
    kind: str
    arg: Any = None


@dataclass(frozen=True)
class FaultConfig:
    """Per-decision-point fault rates for seeded schedules.

    Rates are probabilities per consultation of the site whose
    :data:`FAULTS` row names them; the kinds of one site are mutually
    exclusive (at most one fault per decision point).  ``delay_ns_*``
    bound the drawn :data:`NS` arguments.
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_ns_min: float = 2_000.0
    delay_ns_max: float = 50_000.0
    migrate_abort_rate: float = 0.0
    migrate_bounce_rate: float = 0.0
    ckpt_error_rate: float = 0.0
    ckpt_corrupt_rate: float = 0.0
    crash_rate: float = 0.0
    evac_rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            rate = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= rate <= 1.0:
                raise ChaosError(f"{f.name} is {rate}, not in [0, 1]")
        if not self.delay_ns_min <= self.delay_ns_max:
            raise ChaosError(
                f"delay_ns_min {self.delay_ns_min} exceeds delay_ns_max "
                f"{self.delay_ns_max}")
        for site, rows in FAULTS.items():
            total = sum(getattr(self, row.rate) for row in rows)
            if not 0.0 <= total <= 1.0:
                raise ChaosError(
                    f"{site!r} fault rates sum to {total}, not in [0, 1]")


#: The standard sweep's fault rates: ``tools/chaos_sweep.py``'s defaults
#: and the fixed profile every ``chaos:`` runspec replays under — part of
#: the runspec contract (one spec, one run), and nonzero so that seeds
#: diverge and ``bisect`` has something to find.
STANDARD_RATES = dict(
    drop_rate=0.01, delay_rate=0.08, reorder_rate=0.05,
    migrate_abort_rate=0.1, migrate_bounce_rate=0.05,
    ckpt_error_rate=0.02, ckpt_corrupt_rate=0.02,
    crash_rate=0.15, evac_rate=0.1)


def _check_scripted(i: int, ev: FaultEvent) -> None:
    """Refuse script entry ``i`` unless :data:`FAULTS` admits it: a known
    site, one of that site's kinds, and the argument the kind takes."""
    if ev.site not in FAULTS:
        raise ChaosError(
            f"script[{i}]: unknown fault site {ev.site!r}; known: {SITES}")
    row = KINDS.get((ev.site, ev.kind))
    if row is None:
        raise ChaosError(
            f"script[{i}]: site {ev.site!r} has no fault kind {ev.kind!r}; "
            f"known: {tuple(row.kind for row in FAULTS[ev.site])}")
    if not row.arg.admits(ev.arg):
        raise ChaosError(f"script[{i}]: {ev.kind!r} takes {row.arg.what}, "
                         f"got {ev.arg!r}")


class FaultSchedule:
    """A deterministic answer to "does a fault fire at this point?".

    Build one with :meth:`seeded` or :meth:`scripted`; the injector calls
    :meth:`decide` at every faultable decision point.  Fired events
    accumulate in :attr:`injected` (and :meth:`script` returns them),
    which is exactly the list a scripted replay needs.
    """

    def __init__(self, *, seed: Optional[int] = None,
                 config: Optional[FaultConfig] = None,
                 script: Optional[Sequence[FaultEvent]] = None):
        if (seed is None) == (script is None):
            raise ChaosError(
                "FaultSchedule needs exactly one of seed= or script= "
                "(use .seeded() / .scripted())")
        self.seed = seed
        self.config = cfg = config or FaultConfig()
        self._rng = random.Random(seed) if seed is not None else None
        #: site -> ``(kind, rate, arg)`` per row: the rates, read once.
        self._rates = {site: [(row.kind, getattr(cfg, row.rate), row.arg)
                              for row in rows]
                       for site, rows in FAULTS.items()}
        self._script: Dict[tuple, FaultEvent] = {}
        for i, ev in enumerate(script or ()):
            _check_scripted(i, ev)
            key = (ev.site, ev.seq)
            if key in self._script:
                raise ChaosError(
                    f"script[{i}]: duplicate scripted event at {key}")
            self._script[key] = ev
        self._seq: Dict[str, int] = {site: 0 for site in SITES}
        #: Every fault the schedule fired this run, in decision order.  A
        #: barrier fault is recorded here even when it is skipped — the
        #: injector never takes down the last live processor — so an entry
        #: is not always an applied fault (the injector's counters are).
        #: Replaying this list reproduces the run either way.
        self.injected: List[FaultEvent] = []

    # -- constructors ---------------------------------------------------

    @classmethod
    def seeded(cls, seed: int,
               config: Optional[FaultConfig] = None) -> "FaultSchedule":
        """Draw faults from ``random.Random(seed)`` at ``config``'s rates."""
        return cls(seed=seed, config=config)

    @classmethod
    def scripted(cls, events: Sequence[FaultEvent]) -> "FaultSchedule":
        """Replay exactly ``events``, matched by ``(site, seq)``."""
        return cls(script=list(events))

    @property
    def mode(self) -> str:
        """``"seeded"`` or ``"scripted"``."""
        return "seeded" if self._rng is not None else "scripted"

    # -- the one decision -----------------------------------------------

    def decide(self, site: str) -> Optional[FaultEvent]:
        """Consume one decision point at ``site``; maybe return a fault.

        Advances the site's sequence number unconditionally — in both
        modes, fault or not — so seeded and scripted runs of the same
        workload agree on which physical event each ``(site, seq)`` is.
        """
        if site not in SITES:
            raise ChaosError(f"unknown fault site {site!r}; known: {SITES}")
        seq = self._seq[site]
        self._seq[site] = seq + 1
        if self._rng is None:
            ev = self._script.get((site, seq))
        else:
            ev = self._draw(site, seq)
        if ev is not None:
            self.injected.append(ev)
        return ev

    def _draw(self, site: str, seq: int) -> Optional[FaultEvent]:
        """One ``rng.random()`` against the site's rates in row order; an
        argument is drawn only for the kind that fires."""
        rng = self._rng
        r = rng.random()
        for kind, rate, arg in self._rates[site]:
            if r < rate:
                return FaultEvent(site, seq, kind, arg.draw(rng, self.config))
            r -= rate
        return None

    # -- replay support -------------------------------------------------

    def script(self) -> List[FaultEvent]:
        """The applied faults, ready for :meth:`scripted` replay."""
        return list(self.injected)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        src = f"seed={self.seed}" if self.mode == "seeded" \
            else f"{len(self._script)} scripted"
        return f"<FaultSchedule {src}, {len(self.injected)} injected>"

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ChaosError

__all__ = ["SITES", "STANDARD_RATES", "FaultEvent", "FaultConfig",
           "FaultSchedule"]

#: The faultable decision sites.
#:
#: * ``send`` — a faultable message leaves :meth:`Cluster.send`
#:   (drop / delay / dup / reorder);
#: * ``migrate`` — a migration is about to start (abort before any state
#:   moves);
#: * ``mig_delivery`` — a thread image arrives at its destination
#:   (bounce: the destination refuses and the image ships home);
#: * ``ckpt`` — a checkpoint blob is about to hit the simulated disk
#:   (io_error / corrupt);
#: * ``barrier`` — a coordinated checkpoint barrier completed
#:   (crash / evac of a processor).
SITES = ("send", "migrate", "mig_delivery", "ckpt", "barrier")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: ``kind`` fired at decision point ``(site, seq)``.

    The repr is valid Python — a printed schedule pastes straight back
    into a scripted :class:`FaultSchedule` (see
    :meth:`ChaosRunner.repro_script`).

    ``arg`` is the kind's parameter: extra delay in ns (``delay``, and
    the duplicate's offset for ``dup``), or a fraction in ``[0, 1)``
    selecting a victim among the currently-live choices (``crash`` /
    ``evac`` pick a processor, ``corrupt`` picks a payload byte) — a
    fraction, not an index, so a schedule stays meaningful as processors
    fail or blob sizes change.
    """

    site: str
    seq: int
    kind: str
    arg: Any = None


@dataclass(frozen=True)
class FaultConfig:
    """Per-decision-point fault rates for seeded schedules.

    Rates are probabilities per consultation of the matching site; the
    kinds of one site are mutually exclusive (at most one fault per
    decision point).
    """

    # -- "send" site ----------------------------------------------------
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_ns_min: float = 2_000.0
    delay_ns_max: float = 50_000.0
    # -- "migrate" / "mig_delivery" sites -------------------------------
    migrate_abort_rate: float = 0.0
    migrate_bounce_rate: float = 0.0
    # -- "ckpt" site ----------------------------------------------------
    ckpt_error_rate: float = 0.0
    ckpt_corrupt_rate: float = 0.0
    # -- "barrier" site -------------------------------------------------
    crash_rate: float = 0.0
    evac_rate: float = 0.0
    #: Stop injecting after this many faults (0 = unlimited).
    max_faults: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            rate = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= rate <= 1.0:
                raise ChaosError(f"{f.name} is {rate}, not in [0, 1]")
        if not self.delay_ns_min <= self.delay_ns_max:
            raise ChaosError(
                f"delay_ns_min {self.delay_ns_min} exceeds delay_ns_max "
                f"{self.delay_ns_max}")
        pairs = [("send", self.drop_rate + self.delay_rate + self.dup_rate
                  + self.reorder_rate),
                 ("migrate", self.migrate_abort_rate),
                 ("mig_delivery", self.migrate_bounce_rate),
                 ("ckpt", self.ckpt_error_rate + self.ckpt_corrupt_rate),
                 ("barrier", self.crash_rate + self.evac_rate)]
        for site, total in pairs:
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


class FaultSchedule:
    """A deterministic answer to "does a fault fire at this point?".

    Build one with :meth:`seeded` or :meth:`scripted`; the injector calls
    :meth:`decide` at every faultable decision point.  Applied events
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
        self.config = config or FaultConfig()
        self._rng = random.Random(seed) if seed is not None else None
        self._script: Dict[Tuple[str, int], FaultEvent] = {}
        if script is not None:
            for ev in script:
                if ev.site not in SITES:
                    raise ChaosError(f"unknown fault site {ev.site!r}; "
                                     f"known: {SITES}")
                key = (ev.site, ev.seq)
                if key in self._script:
                    raise ChaosError(f"duplicate scripted event at {key}")
                self._script[key] = ev
        self._seq: Dict[str, int] = {site: 0 for site in SITES}
        #: Every fault actually applied this run, in application order.
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
            if ev is not None:
                self.injected.append(ev)
            return ev
        cfg = self.config
        if cfg.max_faults and len(self.injected) >= cfg.max_faults:
            return None
        ev = self._draw(site, seq)
        if ev is not None:
            self.injected.append(ev)
        return ev

    def _draw(self, site: str, seq: int) -> Optional[FaultEvent]:
        rng = self._rng
        cfg = self.config
        r = rng.random()
        if site == "send":
            if r < cfg.drop_rate:
                return FaultEvent(site, seq, "drop")
            r -= cfg.drop_rate
            if r < cfg.delay_rate:
                ns = round(rng.uniform(cfg.delay_ns_min, cfg.delay_ns_max), 1)
                return FaultEvent(site, seq, "delay", ns)
            r -= cfg.delay_rate
            if r < cfg.dup_rate:
                ns = round(rng.uniform(cfg.delay_ns_min, cfg.delay_ns_max), 1)
                return FaultEvent(site, seq, "dup", ns)
            r -= cfg.dup_rate
            if r < cfg.reorder_rate:
                return FaultEvent(site, seq, "reorder")
        elif site == "migrate":
            if r < cfg.migrate_abort_rate:
                return FaultEvent(site, seq, "abort")
        elif site == "mig_delivery":
            if r < cfg.migrate_bounce_rate:
                return FaultEvent(site, seq, "bounce")
        elif site == "ckpt":
            if r < cfg.ckpt_error_rate:
                return FaultEvent(site, seq, "io_error")
            r -= cfg.ckpt_error_rate
            if r < cfg.ckpt_corrupt_rate:
                return FaultEvent(site, seq, "corrupt",
                                  round(rng.random(), 6))
        elif site == "barrier":
            if r < cfg.crash_rate:
                return FaultEvent(site, seq, "crash", round(rng.random(), 6))
            r -= cfg.crash_rate
            if r < cfg.evac_rate:
                return FaultEvent(site, seq, "evac", round(rng.random(), 6))
        return None

    # -- replay support -------------------------------------------------

    def script(self) -> List[FaultEvent]:
        """The applied faults, ready for :meth:`scripted` replay."""
        return list(self.injected)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        src = f"seed={self.seed}" if self.mode == "seeded" \
            else f"{len(self._script)} scripted"
        return f"<FaultSchedule {src}, {len(self.injected)} injected>"

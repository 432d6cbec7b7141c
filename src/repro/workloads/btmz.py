"""A NAS BT-MZ-like multi-zone workload (paper Section 4.5, Figure 12).

The NAS "Multi-Zone" benchmarks solve the BT/SP/LU application benchmarks
over collections of loosely coupled meshes ("zones").  BT-MZ is the variant
with deliberately uneven zone sizes — its documentation states the ratio of
the largest to the smallest zone is about 20 — "creating the most dramatic
load imbalance", which is why the paper uses it to demonstrate thread-
migration load balancing.

We reproduce the *structural* properties Figure 12 depends on:

* the per-class zone counts and aggregate grid sizes of the real suite;
* an exponential zone-width distribution along x calibrated so
  ``max zone points / min zone points ≈ 20``;
* per-iteration solver work proportional to a zone's point count (the BT
  solver is O(points) per step);
* boundary exchange between adjacent zones, sized by the shared face.

Each AMPI rank owns a contiguous block of zones (the "NPROCS" of a BT-MZ
build is our rank count), computes its zones' work, exchanges zone
boundaries, and hits an ``MPI_Migrate`` point each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ampi import AmpiRuntime
from repro.balance.strategies import NullLB, Strategy
from repro.errors import ReproError
from repro.sim.network import Network

__all__ = ["Zone", "BTMZ_CLASSES", "BTMZClass", "make_zones",
           "zone_rank_assignment", "BTMZConfig", "BTMZResult",
           "make_btmz_main", "run_btmz"]


@dataclass(frozen=True)
class Zone:
    """One zone: its mesh dimensions and solver cost basis."""

    index: int
    nx: int
    ny: int
    nz: int

    @property
    def points(self) -> int:
        """Grid points in the zone (drives per-step solver work)."""
        return self.nx * self.ny * self.nz

    def face_points(self, other: "Zone") -> int:
        """Boundary points shared with a neighbor (ghost-exchange size)."""
        return min(self.ny, other.ny) * min(self.nz, other.nz)


@dataclass(frozen=True)
class BTMZClass:
    """One problem class of the BT-MZ suite."""

    name: str
    x_zones: int
    y_zones: int
    gx: int       # aggregate grid size
    gy: int
    gz: int
    iterations: int

    @property
    def num_zones(self) -> int:
        return self.x_zones * self.y_zones


#: The published BT-MZ class definitions (zones and aggregate sizes).
BTMZ_CLASSES: Dict[str, BTMZClass] = {
    "S": BTMZClass("S", 2, 2, 24, 24, 6, 60),
    "W": BTMZClass("W", 4, 4, 64, 64, 8, 200),
    "A": BTMZClass("A", 4, 4, 128, 128, 16, 200),
    "B": BTMZClass("B", 8, 8, 304, 208, 17, 200),
    "C": BTMZClass("C", 16, 16, 480, 320, 28, 200),
    "D": BTMZClass("D", 32, 32, 1632, 1216, 34, 250),
}

#: Documented size imbalance of BT-MZ: largest/smallest zone ≈ 20.
SIZE_RATIO = 20.0

#: The three NPB-MZ benchmarks and their zone-size character: BT-MZ's
#: zones are exponentially uneven (ratio ≈ 20); SP-MZ's are all equal;
#: LU-MZ is fixed at a 4x4 grid of equal zones.  "Among these tests,
#: BT-MZ creates the most dramatic load imbalance, which is used in our
#: test runs" — SP-MZ and LU-MZ serve as balanced controls.
BENCHMARKS = ("bt", "sp", "lu")


def _exponential_partition(total: int, parts: int, ratio: float) -> List[int]:
    """Split ``total`` into ``parts`` widths growing geometrically by
    ``ratio`` end to end (width_i ∝ ratio**(i/(parts-1)))."""
    if parts == 1:
        return [total]
    weights = [ratio ** (i / (parts - 1)) for i in range(parts)]
    scale = total / sum(weights)
    widths = [max(1, int(round(w * scale))) for w in weights]
    # Fix rounding drift on the largest part.
    widths[-1] += total - sum(widths)
    if min(widths) < 1:
        raise ReproError(f"cannot partition {total} into {parts} uneven parts")
    return widths


def make_zones(class_name: str, benchmark: str = "bt") -> List[Zone]:
    """Generate the zone list for an NPB-MZ class.

    ``benchmark`` selects the suite member:

    * ``"bt"`` — zone widths along x follow the exponential distribution;
      the max/min point ratio is ≈ :data:`SIZE_RATIO`, the documented
      BT-MZ imbalance;
    * ``"sp"`` — equal-size zones on the class's zone grid;
    * ``"lu"`` — a fixed 4x4 grid of equal-size zones regardless of class.
    """
    if benchmark not in BENCHMARKS:
        raise ReproError(f"unknown NPB-MZ benchmark {benchmark!r}; "
                         f"known: {BENCHMARKS}")
    try:
        cls = BTMZ_CLASSES[class_name]
    except KeyError:
        raise ReproError(f"unknown BT-MZ class {class_name!r}; "
                         f"known: {sorted(BTMZ_CLASSES)}") from None
    x_zones, y_zones = cls.x_zones, cls.y_zones
    if benchmark == "lu":
        x_zones = y_zones = 4
    if benchmark == "bt":
        xw = _exponential_partition(cls.gx, x_zones, SIZE_RATIO)
    else:
        xw = [cls.gx // x_zones] * x_zones
        xw[-1] += cls.gx - sum(xw)
    yw = [cls.gy // y_zones] * y_zones
    yw[-1] += cls.gy - sum(yw)
    zones = []
    idx = 0
    for j in range(y_zones):
        for i in range(x_zones):
            zones.append(Zone(idx, xw[i], yw[j], cls.gz))
            idx += 1
    return zones


def zone_rank_assignment(zones: List[Zone], nprocs: int) -> List[List[Zone]]:
    """Assign zones to ranks in contiguous blocks (the static mapping).

    This is deliberately load-oblivious — the whole point of Figure 12 is
    that thread migration fixes the imbalance this static assignment
    creates, without touching the application.
    """
    if nprocs > len(zones):
        raise ReproError(
            f"BT-MZ needs nprocs <= zones ({nprocs} > {len(zones)})")
    per = len(zones) // nprocs
    extra = len(zones) % nprocs
    out: List[List[Zone]] = []
    cursor = 0
    for r in range(nprocs):
        take = per + (1 if r < extra else 0)
        out.append(zones[cursor:cursor + take])
        cursor += take
    return out


@dataclass(frozen=True)
class BTMZConfig:
    """One Figure 12 test case, e.g. ``BTMZConfig("B", 16, 8)`` = "B.16,8PE"."""

    class_name: str
    nprocs: int          # AMPI ranks (the benchmark's NPROCS)
    npes: int            # actual processors
    iterations: int = 6  # scaled-down outer steps (paper runs full NPB counts)
    benchmark: str = "bt"   # "bt" | "sp" | "lu" (zone-size character)
    #: Solver cost per zone point per iteration (ns); calibrated so class A
    #: steps take milliseconds of virtual time.
    ns_per_point: float = 40.0
    #: Bytes exchanged per boundary point per iteration.
    bytes_per_face_point: float = 40.0
    #: Load-balance (MPI_Migrate) every this many iterations.
    lb_period: int = 1

    @property
    def label(self) -> str:
        """The paper's x-axis label, e.g. ``B.16,8PE``."""
        prefix = "" if self.benchmark == "bt" else f"{self.benchmark.upper()}-"
        return f"{prefix}{self.class_name}.{self.nprocs},{self.npes}PE"


@dataclass(frozen=True)
class BTMZResult:
    """Outcome of one BT-MZ run."""

    config: BTMZConfig
    strategy: str
    makespan_ns: float
    migrations: int
    imbalance_before: float
    imbalance_after: float


def make_btmz_main(cfg: BTMZConfig, checkpoint_period: int = 0):
    """Build the AMPI rank program for one BT-MZ configuration.

    Each rank's iteration: per-zone solver work (charged), boundary
    exchange with the neighboring ranks' zones, then an ``MPI_Migrate``
    point every ``cfg.lb_period`` iterations.  ``checkpoint_period > 0``
    adds a coordinated checkpoint every that many iterations (used by the
    chaos harness to exercise crash/recovery).
    """
    zones = make_zones(cfg.class_name, cfg.benchmark)
    assignment = zone_rank_assignment(zones, cfg.nprocs)
    rank_points = [sum(z.points for z in zs) for zs in assignment]

    def main(mpi):
        my_zones = assignment[mpi.rank]
        left = mpi.rank - 1
        right = mpi.rank + 1
        has_right = right < mpi.size
        has_left = left >= 0
        sweep_ns = cfg.ns_per_point * rank_points[mpi.rank]
        # Zone geometry is fixed for the run: size each face once.
        if has_right:
            right_bytes = int(my_zones[-1].face_points(assignment[right][0])
                              * cfg.bytes_per_face_point)
        if has_left:
            left_bytes = int(my_zones[0].face_points(assignment[left][-1])
                             * cfg.bytes_per_face_point)
        for it in range(cfg.iterations):
            face = ("face", it)
            # BT solver sweep over every owned zone.
            mpi.charge(sweep_ns)
            # Boundary exchange with adjacent ranks (zone face data).
            if has_right:
                mpi.send(right, None, tag=face, size_bytes=right_bytes)
            if has_left:
                mpi.send(left, None, tag=face, size_bytes=left_bytes)
            if has_right:
                yield from mpi.recv(source=right, tag=face)
            if has_left:
                yield from mpi.recv(source=left, tag=face)
            if (it + 1) % cfg.lb_period == 0:
                yield from mpi.migrate()
            if checkpoint_period and (it + 1) % checkpoint_period == 0:
                yield from mpi.checkpoint()

    return main


def run_btmz(cfg: BTMZConfig, strategy: Optional[Strategy] = None,
             network: Optional[Network] = None) -> BTMZResult:
    """Run one BT-MZ configuration under AMPI; returns timing and LB stats.

    See :func:`make_btmz_main` for the per-rank program.
    """
    strategy = strategy or NullLB()
    main = make_btmz_main(cfg)

    rt = AmpiRuntime(cfg.npes, cfg.nprocs, main, strategy=strategy,
                     network=network,
                     platform="tungsten_xeon",  # the paper's Fig 12 cluster
                     slot_bytes=256 * 1024, stack_bytes=8 * 1024)
    rt.run()
    first = rt.reports[0] if rt.reports else None
    last = rt.reports[-1] if rt.reports else None
    return BTMZResult(
        config=cfg,
        strategy=strategy.name,
        makespan_ns=rt.makespan_ns,
        migrations=sum(r.migrations for r in rt.reports),
        imbalance_before=first.imbalance_before if first else 1.0,
        imbalance_after=last.imbalance_after if last else 1.0,
    )

"""Ablation: optimism control in the Time-Warp engine (mini-POSE).

The POSE paper the ICPP paper cites is about *grainsize and optimism
control*: unlimited speculation causes rollback storms; a bounded
speculation window trades a little laziness for far less wasted work.
This bench sweeps the throttle window on a straggler-heavy workload and
reports committed vs. speculative events.
"""

from repro.bench.report import emit, render_table
from repro.core.pup import pup_register
from repro.pose import PoseEngine, Poser
from repro.sim import Cluster

N_EVENTS = 40


@pup_register
class _Sink(Poser):
    def __init__(self):
        self.seen = []

    def pup(self, p):
        self.seen = p.list_double(self.seen)

    def on_tok(self, data):
        self.seen.append(float(data))
        return []


def run(window):
    cl = Cluster(2)
    eng = PoseEngine(cl, throttle_window=window)
    eng.register("sink", _Sink(), 1)
    for vt in range(N_EVENTS, 0, -1):        # reverse order: max straggling
        eng.schedule("sink", "tok", float(vt), at=float(vt))
    stats = eng.run()
    assert eng.poser("sink").seen == [float(v) for v in range(1, N_EVENTS + 1)]
    return eng, stats


def test_ablation_pose_throttle(benchmark):
    rows = []
    results = {}
    for label, window in (("unlimited (Time Warp)", None),
                          ("window = 8", 8.0),
                          ("window = 2", 2.0),
                          ("window = 0 (conservative)", 0.0)):
        eng, stats = run(window)
        results[label] = stats
        rows.append([label, stats.events_processed, stats.rollbacks,
                     stats.events_rolled_back, stats.antimessages,
                     eng.deferrals])
    emit("ablation_pose.txt",
         render_table(["optimism", "processed", "rollbacks", "undone",
                       "antimsgs", "deferrals"], rows,
                      f"Ablation: optimism control, {N_EVENTS} events "
                      f"injected in reverse timestamp order"))

    wild = results["unlimited (Time Warp)"]
    tight = results["window = 0 (conservative)"]
    assert wild.rollbacks > 0
    assert tight.rollbacks <= wild.rollbacks
    assert tight.events_processed <= wild.events_processed
    # Every configuration commits the same N_EVENTS (checked inside run).

    benchmark(lambda: run(2.0))

"""Ablation: load-balancing the BigSim simulation itself.

The paper's two contributions composed: BigSim's target-processor threads
are migratable, so when the target application has a spatially dense
region (an MD droplet) and the host uses the realistic blocked placement,
GreedyLB migration of the *simulation's own threads* recovers the lost
host efficiency — while leaving the predicted target time bit-identical.
"""

from repro.balance import GreedyLB
from repro.bench.report import emit, render_table
from repro.bigsim import BigSimEngine, TargetMachine
from repro.workloads.md import MDConfig, MDWorkload

DIMS = (4, 4, 8)
STEPS = 6


def test_ablation_bigsim_lb(benchmark):
    wl = MDWorkload(MDConfig(dims=DIMS, atom_jitter=0.9,
                             density_profile="gradient"))
    tgt = TargetMachine(dims=DIMS)
    rows = []
    results = {}
    for label, kwargs in (
            ("round-robin, no LB", {"placement": "round_robin"}),
            ("blocked, no LB", {"placement": "block"}),
            ("blocked + GreedyLB", {"placement": "block",
                                    "strategy": GreedyLB(),
                                    "lb_period": 2})):
        res = BigSimEngine(4, tgt, wl, steps=STEPS, **kwargs).run()
        results[label] = res
        rows.append([label, f"{res.host_ns_per_step / 1e6:.3f}",
                     f"{res.predicted_target_ns_per_step / 1e6:.4f}"])
    emit("ablation_bigsim_lb.txt",
         render_table(["configuration", "host ms/step",
                       "predicted target ms/step"], rows,
                      f"Ablation: BigSim of a {DIMS} droplet MD target on "
                      f"4 host processors"))

    blocked = results["blocked, no LB"]
    balanced = results["blocked + GreedyLB"]
    # LB recovers host time lost to the dense slab...
    assert balanced.host_ns_per_step < 0.9 * blocked.host_ns_per_step
    # ...and never perturbs the prediction.
    preds = {f"{r.predicted_target_ns_per_step:.6f}"
             for r in results.values()}
    assert len(preds) == 1

    small = MDWorkload(MDConfig(dims=(3, 3, 3), atom_jitter=0.9,
                                density_profile="gradient"))
    benchmark(lambda: BigSimEngine(
        2, TargetMachine(dims=(3, 3, 3)), small, steps=2,
        placement="block", strategy=GreedyLB(), lb_period=1).run())

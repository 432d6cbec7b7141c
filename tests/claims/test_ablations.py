"""The design-decision ablations: each sweeps one knob the paper argues
about (claims 10, 19 and 26, and DESIGN.md's decisions and extensions)."""

from repro.bench.ablations import CLIENT_COUNTS, COMPUTE_NS, CORES, \
    GOT_SIZES, IO_NS


def test_ablation_page_size(experiment):
    alias_costs, copy_costs = experiment("ablation_page_size")
    # Bigger pages make aliasing cheaper (fewer PTE edits per switch)...
    assert alias_costs == sorted(alias_costs, reverse=True)
    # ...while stack copying is indifferent to page size.
    assert max(copy_costs) - min(copy_costs) < 1e-9
    # At this stack size, aliasing beats copying for every page size.
    assert all(a < c for a, c in zip(alias_costs, copy_costs))


def test_claim19_virtualization_ratio(experiment):
    imb_after, makespans = experiment("ablation_granularity")
    # More virtualization -> finer migratable grains -> better balance:
    # post-LB imbalance falls monotonically with the rank count.
    assert all(a >= b - 1e-9 for a, b in zip(imb_after, imb_after[1:]))
    # Barely-virtualized (9 ranks on 8 PEs): LB cannot fix the imbalance.
    assert imb_after[0] > 1.2
    # Well-virtualized (4x ranks per PE): essentially perfect balance.
    assert imb_after[-1] < 1.1


def test_ablation_got_size(experiment):
    costs = experiment("ablation_swapglobal")
    # Cost grows monotonically with GOT size...
    assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))
    # ...but a typical GOT (tens of globals) adds well under one base
    # switch, and even 256 entries stays in the same order of magnitude.
    base = costs[0]
    assert costs[GOT_SIZES.index(64)] < 2 * base
    assert costs[GOT_SIZES.index(256)] < 3 * base
    # A pathological 4096-entry GOT dominates the switch entirely.
    assert costs[-1] > 10 * base


def test_claim26_io_interception(experiment):
    naive, smart = experiment("ablation_io")
    for i, n in enumerate(CLIENT_COUNTS):
        # Naive pays the I/O serially.
        assert naive[i] >= n * IO_NS / 1e6
        # Interception overlaps all I/O: one io + the serial compute.
        assert smart[i] < (IO_NS + n * COMPUTE_NS) / 1e6 * 1.5
        assert smart[i] < naive[i]
    # The advantage grows with concurrency.
    assert naive[-1] / smart[-1] > naive[0] / smart[0]


def test_claim10_smp_speedup(experiment):
    series = experiment("ablation_smp")
    iso, copy, alias = (series["isomalloc"], series["stack_copy"],
                        series["memory_alias"])
    # Isomalloc scales; the single-address techniques are pinned near 1.
    assert iso[-1] > 6.0
    assert all(s < 1.05 for s in copy)
    assert all(s < 1.05 for s in alias)
    # At one core all techniques are within overhead of each other.
    assert abs(iso[0] - alias[0]) < 0.1
    # Our k-slot extension interpolates: ~min(k, cores) speedup.
    at4 = CORES.index(4)
    assert 1.8 < series["alias_k=2"][at4] < 2.2
    assert series["alias_k=4"][at4] > 3.5


def test_ablation_bigsim_lb(experiment):
    results = experiment("ablation_bigsim_lb")
    blocked = results["blocked, no LB"]
    balanced = results["blocked + GreedyLB"]
    # LB recovers host time lost to the dense slab...
    assert balanced.host_ns_per_step < 0.9 * blocked.host_ns_per_step
    # ...and never perturbs the prediction.
    preds = {f"{r.predicted_target_ns_per_step:.6f}"
             for r in results.values()}
    assert len(preds) == 1


def test_ablation_pose_throttle(experiment):
    results = experiment("ablation_pose")
    wild = results["unlimited (Time Warp)"]
    tight = results["window = 0 (conservative)"]
    assert wild.rollbacks > 0
    assert tight.rollbacks <= wild.rollbacks
    assert tight.events_processed <= wild.events_processed
    # Every configuration commits the same tokens (or the run raises).


def test_ablation_mechanism_spectrum(experiment):
    costs = experiment("ablation_mechanisms")
    # The paper's taxonomy ordering, fully populated.
    assert (costs["event"] < costs["cth"] < costs["ampi"]
            < costs["n:m"] < costs["pthread"] < costs["process"])
    # Event-driven dispatch is an order of magnitude below kernel threads.
    assert costs["pthread"] / costs["event"] > 5

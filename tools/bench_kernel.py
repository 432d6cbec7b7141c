#!/usr/bin/env python3
"""Benchmark the event kernel: ref-vs-fast and thread-vs-compiled A/B.

``--compare ref`` (the default) times the kernel against the frozen
reference kernel (:mod:`repro.kernel.refkernel`), best-of-``--repeats``
wall-clock on pre-filled queues of no-op events: drain, and drain with
50% cancelled, each through the ``schedule()`` API and through the bulk
``post_batch``/``cancel_slots`` ingress.  Writes
``results/kernel_bench.json``.

``--compare compiled`` benchmarks the same workload as generator
threads vs compiled continuation state machines (the two forms must
agree on results and dispatch counts), plus the batched-vs-looped
producer ingress for cluster sends and the BigSim ghost scatter; its
report is *merged* under the ``"compiled"`` key of
``results/kernel_bench.json`` so the ref numbers survive.

Run:  PYTHONPATH=src python tools/bench_kernel.py [--compare ref|compiled]
"""

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.kernel import EventKernel  # noqa: E402


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _noop():
    pass


def best_of_interleaved(repeats, thunks):
    """Best wall-clock per contender, sampled round-robin.

    Contenders run alternately within each repeat round rather than in
    separate phases, so machine drift (thermal, co-tenants) lands on all
    of them equally — measuring them minutes apart swings the comparison
    by more than the effect being measured.

    The collector is paused around each timed thunk (as ``timeit`` does):
    at a few hundred thousand queued events, generational collections
    triggered by *earlier* rounds' garbage otherwise land inside whichever
    contender happens to be on the clock.
    """
    best = {name: float("inf") for name in thunks}
    for _ in range(repeats):
        for name, fn in thunks.items():
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                fn()
                best[name] = min(best[name], time.perf_counter() - t0)
            finally:
                gc.enable()
    return best


def make_kernel():
    return EventKernel(name="bench")


# ---------------------------------------------------------------------------
# --compare compiled: compiled continuations vs user-level threads, plus
# the batched-vs-looped producer ingress (cluster sends / BigSim)
# ---------------------------------------------------------------------------

def _bench_forms(flows, rounds, repeats):
    """A/B the same spin workload as generator threads vs compiled
    continuations through the workload-execution contract."""
    from repro.flows import CompiledContinuationFlow, UserThreadFlow
    from repro.flows.programs import spin_program
    from repro.sim import Processor, get_platform

    runs = {}

    def once(cls, label):
        mech = cls(Processor(0, get_platform("linux_x86")))
        runs[label] = mech.run_workload(spin_program(flows, rounds),
                                        real_flows=False)

    best = best_of_interleaved(repeats, {
        "uthread": lambda: once(UserThreadFlow, "uthread"),
        "compiled": lambda: once(CompiledContinuationFlow, "compiled"),
    })
    table = {}
    for label, dt in best.items():
        run = runs[label]
        table[label] = {
            "dispatches": run.dispatches,
            "kernel_events": run.kernel_events,
            "wall_ms": round(dt * 1e3, 2),
            "ns_per_dispatch": round(dt * 1e9 / run.dispatches, 1),
        }
    # The forms must agree on *what* ran, not just how fast.
    agree = (runs["uthread"].results == runs["compiled"].results
             and runs["uthread"].dispatches == runs["compiled"].dispatches)
    return table, agree


def _bench_bigsim_producer(repeats):
    """Wall time of a BigSim run, ghost scatter batched vs per-send."""
    from repro.ampi.context import AmpiContext
    from repro.bigsim import BigSimEngine, TargetMachine
    from repro.workloads.md import MDConfig, MDWorkload

    results = {}

    def once(batched):
        orig = AmpiContext.send_many
        if not batched:
            # The pre-batch producer: one send per item, same semantics.
            AmpiContext.send_many = lambda self, items: [
                self.send(d, data, tag, size)
                for d, data, tag, size in items]
        try:
            wl = MDWorkload(MDConfig(dims=(4, 4, 4)))
            eng = BigSimEngine(4, TargetMachine(dims=(4, 4, 4)), wl,
                               steps=4, placement="block")
            results[batched] = eng.run()
        finally:
            AmpiContext.send_many = orig

    best = best_of_interleaved(repeats, {
        "looped": lambda: once(False),
        "batched": lambda: once(True),
    })
    return {
        "target_procs": results[True].target_processors,
        "steps": results[True].steps,
        "identical_results": results[True] == results[False],
        "looped_ms": round(best["looped"] * 1e3, 2),
        "batched_ms": round(best["batched"] * 1e3, 2),
        "speedup": round(best["looped"] / best["batched"], 3),
    }


def _bench_send_ingress(n_msgs, repeats):
    """Pure producer ingress: ``Cluster.send_batch`` vs a ``send`` loop.

    The end-to-end BigSim number is dominated by application work; this
    isolates the posting path itself, which is where the batch adoption
    pays (and why the producers adopted it).
    """
    from repro.sim import Cluster

    items = [((i % 7) + 1, ("x", i), 64) for i in range(n_msgs)]

    def looped():
        cl = Cluster(8)
        for dst, payload, size in items:
            cl.send(0, dst, payload, size, tag="t")

    def batched():
        Cluster(8).send_batch(0, items, tag="t")

    best = best_of_interleaved(repeats, {"looped": looped,
                                         "batched": batched})
    return {
        "messages": n_msgs,
        "looped_ns_per_msg": round(best["looped"] * 1e9 / n_msgs, 1),
        "batched_ns_per_msg": round(best["batched"] * 1e9 / n_msgs, 1),
        "speedup": round(best["looped"] / best["batched"], 3),
    }


def run_compiled_compare(args):
    """Compiled-vs-uthread A/B plus producer-batching before/after.

    The report lands under the ``"compiled"`` key of
    ``results/kernel_bench.json``, *merged* into whatever baseline
    report the file already holds so the ref numbers survive.
    """
    forms, agree = _bench_forms(args.flows, 4, args.repeats)
    ingress = _bench_send_ingress(600, max(5, args.repeats))
    bigsim = _bench_bigsim_producer(max(2, args.repeats // 2))
    return {
        "config": {"flows": args.flows, "rounds": 4,
                   "repeats": args.repeats},
        "forms": forms,
        "producer_batching": {"send_ingress": ingress, "bigsim": bigsim},
        "acceptance": {
            "forms_agree": agree,
            "send_batch_ingress_faster": ingress["speedup"] > 1.0,
            "bigsim_batched_identical": bigsim["identical_results"],
        },
    }


# ---------------------------------------------------------------------------
# --compare ref: frozen reference kernel vs the fast path
# ---------------------------------------------------------------------------

def run_ref_compare(args):
    """A/B the fast path against ``repro.kernel.refkernel``."""
    from repro.kernel.refkernel import EventKernel as RefKernel

    n = args.events
    times = [float(i) for i in range(n)]

    def disp_schedule(make):
        q = make()
        for t in times:
            q.schedule(t, _noop)
        q.run()

    def disp_batch():
        k = make_kernel()
        k.post_batch(times, _noop)
        k.run()

    disp = best_of_interleaved(args.repeats, {
        "ref": lambda: disp_schedule(lambda: RefKernel(name="bench")),
        "fast_schedule": lambda: disp_schedule(make_kernel),
        "fast_batch": disp_batch,
    })

    def cancel_schedule(make):
        q = make()
        evs = [q.schedule(t, _noop) for t in times]
        for ev in evs[::2]:
            ev.cancel()
        q.run()

    def cancel_batch():
        k = make_kernel()
        items = k.post_batch(times, _noop)
        k.cancel_slots(items[::2])
        k.run()

    canc = best_of_interleaved(args.repeats, {
        "ref": lambda: cancel_schedule(lambda: RefKernel(name="bench")),
        "fast_schedule": lambda: cancel_schedule(make_kernel),
        "fast_batch": cancel_batch,
    })

    def table(best):
        ref_ns = best["ref"] * 1e9 / n
        rows = {}
        for name, dt in best.items():
            ns = dt * 1e9 / n
            rows[name] = {"ns_per_event": round(ns, 1),
                          "events_per_s": round(n / dt),
                          "speedup_vs_ref": round(ref_ns / ns, 2)}
        return rows

    report = {
        "mode": "ref",
        "config": {"events": n, "repeats": args.repeats},
        "dispatch": table(disp),
        "cancel_50pct": table(canc),
        "acceptance": {
            "fast_schedule_no_worse_than_ref":
                disp["fast_schedule"] <= disp["ref"] * 1.05,
            "fast_batch_dispatch_ge_5x_ref":
                disp["ref"] / disp["fast_batch"] >= 5.0,
            "fast_batch_cancel_ge_5x_ref":
                canc["ref"] / canc["fast_batch"] >= 5.0,
        },
    }
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--events", type=int, default=200_000,
                    help="events per dispatch/cancel run")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--flows", type=int, default=20_000,
                    help="flow count for --compare compiled")
    ap.add_argument("--compare", choices=("ref", "compiled"), default="ref",
                    help="the frozen reference kernel (ref-vs-fast A/B, "
                         "default), or compiled continuations vs "
                         "user-level threads plus the batched-producer "
                         "before/after")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "results", "kernel_bench.json"))
    args = ap.parse_args(argv)

    out = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if args.compare == "ref":
        report = merged = run_ref_compare(args)
    else:
        report = run_compiled_compare(args)
        merged = {}
        if os.path.exists(out):
            with open(out) as fh:
                merged = json.load(fh)
        merged["compiled"] = report
    with open(out, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = all(report["acceptance"].values())
    print(f"\nacceptance: {'PASS' if ok else 'FAIL'}  ({out})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

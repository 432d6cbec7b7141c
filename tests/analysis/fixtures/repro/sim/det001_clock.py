"""DET001 fixture: wall-clock and unseeded RNG in runtime code.

Lives under a ``repro/sim/`` directory because DET001 is path-scoped to
the replay-deterministic runtime packages.  Every nondeterminism source
is flagged; the seeded/instance-RNG twins stay clean.
"""

import random
import time
from random import Random
from time import perf_counter


def sample_latency(seed):
    rng = random.Random(seed)
    wait = rng.random()
    t0 = time.time()  # expect: DET001
    t1 = perf_counter()  # expect: DET001
    jitter = random.random()  # expect: DET001
    fallback = Random()  # expect: DET001
    good = Random(seed + 1)
    return t0 + t1 + jitter + wait + fallback.random() + good.random()


def shuffle_ranks(ranks, seed):
    random.shuffle(ranks)  # expect: DET001
    rng = random.Random(seed)
    rng.shuffle(ranks)
    return ranks


def wait_for_worker(proc):
    time.sleep(0.1)  # expect: DET001
    return proc


def profiled(seed):
    # Host-side profiling is the sanctioned exception (cf. compiled_scale_cell).
    # migralint: disable=DET001
    t0 = time.perf_counter()
    return t0 + seed

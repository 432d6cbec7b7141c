"""Regression: message ids must be per-cluster, not per-host-process.

``Message.msg_id`` was once drawn from a module-level counter in
``repro.sim.network``, so the ids a run observed depended on how many
simulations had executed earlier in the same host process — two
identical ``(seed, schedule)`` runs inside one pytest process got
different ids, silently breaking any replay or fingerprint comparison
keyed on them.  The counter now lives on the :class:`Cluster`; these
tests pin the fixed semantics and fail on the old code.
"""

from repro.sim import Cluster


def run_ping_round(n_msgs=5):
    """One tiny deterministic run; returns the delivered-id sequence."""
    cl = Cluster(2)
    seen = []
    for proc in cl.processors:
        proc.register("t", lambda msg: seen.append(msg.msg_id))
    for i in range(n_msgs):
        cl.send(i % 2, (i + 1) % 2, payload=i, size_bytes=64, tag="t")
    cl.run()
    return seen


def test_two_runs_in_one_process_see_identical_msg_ids():
    # A polluter run first: under the old module-global counter this
    # advanced the ids every later run in the process would observe.
    run_ping_round(n_msgs=3)
    first = run_ping_round()
    second = run_ping_round()
    assert first == second
    assert first, "the run must actually deliver messages"


def test_msg_ids_start_at_one_per_cluster():
    run_ping_round()                       # another would-be polluter
    cl = Cluster(2)
    cl.processors[1].register("", lambda msg: None)
    msg = cl.send(0, 1, payload="x", size_bytes=16)
    assert msg.msg_id == 1
    assert cl.send(0, 1, payload="y", size_bytes=16).msg_id == 2


def test_full_send_record_is_byte_identical_across_runs():
    """The end-to-end property the bug broke: rendering every message
    field (including msg_id) from two identical runs must match."""

    def render():
        cl = Cluster(3)
        log = []
        for proc in cl.processors:
            for tag in ("t0", "t1"):
                proc.register(tag, lambda msg: log.append(
                    (msg.msg_id, msg.src, msg.dst, msg.tag, msg.send_time)))
        for i in range(9):
            cl.send(i % 3, (i + 1) % 3, payload=i, size_bytes=32 * (i + 1),
                    tag=f"t{i % 2}")
        cl.run()
        return repr(log).encode()

    assert render() == render()

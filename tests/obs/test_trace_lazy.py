"""The :class:`KernelTracer` lifecycle log for one event."""

from repro.kernel import EventKernel, KernelTracer


def _nop():
    pass


def test_recording_default_is_unchanged():
    tracer = KernelTracer()
    k = EventKernel(name="default")
    tracer.attach(k)
    k.schedule(1.0, _nop, category="demo")
    k.run()
    kinds = [e["ev"] for e in tracer.entries]
    assert kinds == ["schedule", "begin", "end", "idle", "quiescence"]

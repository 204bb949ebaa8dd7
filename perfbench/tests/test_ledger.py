"""The traced run's recorder: attribution, asyncio propagation, bindings."""

import asyncio
import inspect
import time

import numpy as np

from perfbench.ledger import BINDINGS, WAIT, Recorder, WaitTimingPolicy, _resolve


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_spans_split_duration_into_self_times():
    recorder = Recorder()

    def parent():
        _spin(0.01)
        recorder.timed("child", _spin, 0.02)
        recorder.timed("child", _spin, 0.02)

    start = time.monotonic_ns()
    recorder.timed("parent", parent)
    wall = (time.monotonic_ns() - start) / 1e9
    assert recorder.calls("child") == 2
    assert recorder.self_s("child") >= 0.04
    assert recorder.self_s("parent") >= 0.01
    assert recorder.self_s("parent", "child") <= wall


def test_spans_opened_in_asyncio_tasks_attach_to_the_caller():
    recorder = Recorder()

    async def main():
        tasks = [asyncio.ensure_future(_task()) for _ in range(2)]
        await asyncio.gather(*tasks)

    async def _task():
        await asyncio.sleep(0)
        recorder.timed("child", _spin, 0.02)

    recorder.timed("parent", asyncio.run, main())
    assert recorder.calls("child") == 2
    # The children ran inside the parent's interval, so it keeps only the rest.
    assert recorder.self_s("parent") < 0.02


def test_event_loop_waits_are_measured_by_the_selector():
    recorder = Recorder()
    recorder.active = True
    loop = WaitTimingPolicy(recorder).new_event_loop()
    try:
        loop.run_until_complete(asyncio.sleep(0.03))
    finally:
        loop.close()
    assert recorder.calls(WAIT) >= 1
    assert recorder.self_s(WAIT) >= 0.02


def test_install_wraps_every_binding_and_uninstall_restores_it():
    originals = {
        (b.module, b.attr): inspect.getattr_static(*_resolve(b.module, b.attr)) for b in BINDINGS
    }
    recorder = Recorder()
    recorder.install()
    try:
        from repro.serve.cache import ServeResultCache

        # A wrapped staticmethod stays static.
        assert ServeResultCache.key("app", "cfg", np.zeros(4)) is not None
        assert recorder.calls("serve.cache") == 1
        for binding in BINDINGS:
            wrapped = inspect.getattr_static(*_resolve(binding.module, binding.attr))
            assert wrapped is not originals[(binding.module, binding.attr)]
    finally:
        recorder.uninstall()
    for binding in BINDINGS:
        restored = inspect.getattr_static(*_resolve(binding.module, binding.attr))
        assert restored is originals[(binding.module, binding.attr)]

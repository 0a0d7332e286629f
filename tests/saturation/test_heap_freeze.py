"""The runner keeps the cyclic GC off live e-graphs, and gives the heap
back when the last run ends.

``Runner`` disables automatic collection while any run is active,
freezes the heap (``gc.freeze``) after each step's rebuild, and
unfreezes it and restores the caller's ``gc.isenabled()`` state when
the last concurrently active run in the process finishes, however it
finishes.  Each step boundary collects the youngest generation once
before it freezes, so overlapping runs that keep the collector off do
not hold back other threads' cyclic garbage.  The freeze is only sound
because a saturation run creates no reference cycles: frozen cyclic
garbage would stay uncollected until the unfreeze.
"""

import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro

from repro.egraph import EGraph, dynamic_rule, rewrite
from repro.ir import parse
from repro.rules.dsl import padd, pconst, pmul, pv
from repro.saturation import Runner


def _runner(step_limit=3, extra_rules=()):
    egraph = EGraph()
    root = egraph.add_term(parse("(a + 0) * (b * 1)"))
    rules = [
        rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x")),
        rewrite("mul-one", pmul(pv("x"), pconst(1)), pv("x")),
        rewrite("mul-comm", pmul(pv("x"), pv("y")), pmul(pv("y"), pv("x"))),
        *extra_rules,
    ]
    return Runner(egraph, rules, step_limit=step_limit), root


def _freeze_counts(runner):
    """Record the frozen-object count at every step boundary."""
    counts = []
    runner.on_step_end.append(lambda *_: counts.append(gc.get_freeze_count()))
    return counts


@pytest.fixture(autouse=True)
def _thawed():
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()
    yield
    gc.unfreeze()
    gc.enable()


def _allocating_rule(keep):
    """A rule whose applier allocates far past the gen-0 threshold."""

    def allocate(egraph, match):
        keep.extend([] for _ in range(5 * gc.get_threshold()[0]))
        return []

    return dynamic_rule("allocate", pmul(pv("x"), pv("y")), allocate)


def test_no_automatic_collection_while_a_run_is_active():
    from repro.saturation.runner import _HEAP_FREEZE

    keep = []
    during_run = []

    def record(phase, info):
        if phase == "start" and _HEAP_FREEZE._active:
            during_run.append(("collect", info["generation"]))

    # The same allocation outside a run does trigger collections, so
    # the check below is not vacuous.
    outside = []
    gc.callbacks.append(lambda phase, info: outside.append(phase))
    try:
        _allocating_rule(keep).applier(None, None)
    finally:
        gc.callbacks.pop()
    assert outside
    runner, root = _runner(extra_rules=[_allocating_rule(keep)])
    runner.on_step_end.append(lambda *_: during_run.append("step"))
    gc.callbacks.append(record)
    try:
        result = runner.run(root)
    finally:
        gc.callbacks.remove(record)
    assert len(keep) > 10 * gc.get_threshold()[0]
    # Only the one young-generation collection each step boundary makes
    # before it freezes the heap.
    assert result.num_steps >= 2
    assert during_run == [("collect", 0), "step"] * result.num_steps
    assert gc.isenabled()


def test_gc_enabled_again_after_a_normal_end():
    seen = []
    runner, root = _runner()
    runner.on_step_end.append(lambda *_: seen.append(gc.isenabled()))
    runner.run(root)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_gc_enabled_again_after_a_raising_applier():
    def explode(egraph, match):
        raise RuntimeError("applier failed")

    runner, root = _runner(extra_rules=[dynamic_rule("boom", pmul(pv("x"), pv("y")), explode)])
    with pytest.raises(RuntimeError, match="applier failed"):
        runner.run(root)
    assert gc.isenabled()


def test_gc_stays_disabled_when_the_caller_disabled_it():
    gc.disable()
    runner, root = _runner()
    runner.run(root)
    assert not gc.isenabled()


def test_run_freezes_each_step_and_unfreezes_at_the_end():
    runner, root = _runner()
    counts = _freeze_counts(runner)
    result = runner.run(root)
    assert result.num_steps >= 2
    assert counts and all(count > 0 for count in counts)
    assert gc.get_freeze_count() == 0


def test_failing_run_unfreezes():
    # The applier raises in step 2, after step 1 froze the heap.
    counts = []

    def explode(egraph, match):
        if counts:
            raise RuntimeError("applier failed")
        return []

    boom = dynamic_rule("boom", pmul(pv("x"), pv("y")), explode)
    runner, root = _runner(extra_rules=[boom])
    runner.on_step_end.append(lambda *_: counts.append(gc.get_freeze_count()))
    with pytest.raises(RuntimeError, match="applier failed"):
        runner.run(root)
    assert counts and counts[0] > 0
    assert gc.get_freeze_count() == 0


def test_concurrent_runs_unfreeze_only_when_the_last_ends():
    first_active = threading.Event()
    second_done = threading.Event()
    seen_while_second_done = []
    errors = []

    def first():
        runner, root = _runner(step_limit=2)

        def hold(runner_, step, record):
            if step == 1:
                first_active.set()
                second_done.wait(timeout=60)
                # The second run ended while this one was still active:
                # its end must not have unfrozen this run's heap.
                seen_while_second_done.append(
                    (gc.get_freeze_count() > 0, gc.isenabled())
                )

        runner.on_step_end.append(hold)
        try:
            runner.run(root)
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    def second():
        first_active.wait(timeout=60)
        try:
            runner, root = _runner(step_limit=1)
            runner.run(root)
        except BaseException as error:
            errors.append(error)
        finally:
            second_done.set()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    # Frozen and still collector-free after the second run ended.
    assert seen_while_second_done == [(True, False)]
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


class _Cycle:
    pass


def test_overlapping_runs_still_collect_other_threads_garbage():
    # Runs that overlap keep the count of active runs above zero, so
    # the collector stays off; cyclic garbage made meanwhile by another
    # thread must still go at the next step boundary of some run, not
    # wait for the last run to end.
    first_active = threading.Event()
    second_done = threading.Event()
    seen = []
    errors = []
    garbage = []

    def first():
        runner, root = _runner(step_limit=2)

        def hold(runner_, step, record):
            if step == 1:
                first_active.set()
                second_done.wait(timeout=60)
                seen.append((garbage[0]() is None, gc.isenabled()))

        runner.on_step_end.append(hold)
        try:
            runner.run(root)
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    thread = threading.Thread(target=first)
    thread.start()
    try:
        assert first_active.wait(timeout=60)
        cycle = _Cycle()
        cycle.self = cycle
        garbage.append(weakref.ref(cycle))
        del cycle
        assert garbage[0]() is not None
        # A second run starts and ends while the first is still active.
        runner, root = _runner(step_limit=1)
        runner.run(root)
    finally:
        second_done.set()
        thread.join(timeout=120)
    assert not errors
    assert seen == [(True, False)]
    assert gc.isenabled()


_NO_CYCLES = """
import gc
from repro.api import Limits, Session

gc.collect()
gc.disable()
result = Session(Limits(step_limit=2)).optimize("gemv", "blas")
assert result.run.num_steps == 2
del result
gc.set_debug(gc.DEBUG_SAVEALL)
unreachable = gc.collect()
print(unreachable, sorted({type(obj).__name__ for obj in gc.garbage}))
"""


def test_saturation_leaves_no_cyclic_garbage():
    # gemv/blas at two steps through the public API, in a fresh
    # interpreter so that no other test's objects are involved: once
    # the result is dropped, refcounting must have freed everything,
    # or frozen cycles would leak for as long as some run stays active.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _NO_CYCLES], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split(" ", 1)[0] == "0", done.stdout


def test_forked_child_starts_with_no_active_run():
    # A child forked mid-run (pool workers) inherits the frozen heap but
    # not the parent's runs: its own first run must end unfrozen.
    from repro.saturation.runner import _HeapFreeze

    heap = _HeapFreeze()
    heap.enter()
    heap.freeze()
    heap.after_fork_in_child()
    assert gc.get_freeze_count() > 0
    # The collector comes back as the parent's caller had it; frozen
    # objects stay out of its reach.
    assert gc.isenabled()
    heap.enter()
    assert not gc.isenabled()
    heap.freeze()
    heap.leave()
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()

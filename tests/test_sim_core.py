"""Unit tests for the DES kernel (repro.sim.core)."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    assert env.run_process(proc()) == 5.0
    assert env.now == 5.0


def test_timeout_zero_delay_fires_at_same_time():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(0.0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc():
        value = yield env.timeout(1.0, value="payload")
        return value

    assert env.run_process(proc()) == "payload"


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(delay, label):
        yield env.timeout(delay)
        order.append(label)

    env.process(waiter(3.0, "c"))
    env.process(waiter(1.0, "a"))
    env.process(waiter(2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    order = []

    def waiter(label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abcde":
        env.process(waiter(label))
    env.run()
    assert order == list("abcde")


def test_run_until_stops_clock_at_limit():
    env = Environment()

    def proc():
        yield env.timeout(100.0)

    env.process(proc())
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_manual_event_succeed():
    env = Environment()
    evt = env.event()
    results = []

    def waiter():
        value = yield evt
        results.append(value)

    def trigger():
        yield env.timeout(2.0)
        evt.succeed("done")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert results == ["done"]


def test_event_double_trigger_raises():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_propagates_to_waiter():
    env = Environment()
    evt = env.event()
    caught = []

    def waiter():
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1.0)
        evt.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    evt = env.event()
    with pytest.raises(TypeError):
        evt.fail("not an exception")


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 99

    def parent():
        value = yield env.process(child())
        return value

    assert env.run_process(parent()) == 99


def test_waiting_on_already_finished_process():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "early"

    def parent(proc):
        yield env.timeout(10.0)
        value = yield proc
        return value, env.now

    child_proc = env.process(child())
    assert env.run_process(parent(child_proc)) == ("early", 10.0)


def test_uncaught_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("broken process")

    env.process(bad())
    with pytest.raises(ValueError, match="broken process"):
        env.run()


def test_waited_on_process_failure_delivered_to_parent():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("inner")

    def parent():
        try:
            yield env.process(bad())
        except ValueError:
            return "handled"

    assert env.run_process(parent()) == "handled"


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    result = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            result.append((env.now, exc.cause))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt(cause="wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert result == [(3.0, "wake up")]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        results = yield env.all_of([t1, t2])
        return env.now, sorted(results.values())

    assert env.run_process(proc()) == (5.0, ["a", "b"])


def test_any_of_returns_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield env.any_of([t1, t2])
        return env.now, list(results.values())

    assert env.run_process(proc()) == (1.0, ["fast"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    assert env.run_process(proc()) == 0.0


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_step_on_empty_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_process_unfinished_raises():
    env = Environment()

    def forever():
        yield env.timeout(1000.0)

    with pytest.raises(SimulationError):
        env.run_process(forever(), until=1.0)


def test_nested_processes_three_deep():
    env = Environment()

    def leaf():
        yield env.timeout(2.0)
        return 1

    def middle():
        value = yield env.process(leaf())
        yield env.timeout(3.0)
        return value + 1

    def root():
        value = yield env.process(middle())
        return value + 1

    assert env.run_process(root()) == 3
    assert env.now == 5.0


def test_many_processes_scale():
    env = Environment()
    done = []

    def worker(i):
        yield env.timeout(float(i % 17))
        done.append(i)

    for i in range(1000):
        env.process(worker(i))
    env.run()
    assert len(done) == 1000


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_interrupt_large_fanin_detaches_all_waiters():
    # Many processes wait on ONE shared event; interrupting them all must
    # detach each waiter (tombstone swap) without disturbing the others.
    env = Environment()
    gate = env.event()
    interrupted = []

    def waiter(i):
        try:
            yield gate
            interrupted.append((i, "resumed"))
        except Interrupt as exc:
            interrupted.append((i, exc.cause))

    procs = [env.process(waiter(i)) for i in range(50)]

    def interrupter():
        yield env.timeout(1.0)
        for k, p in enumerate(procs):
            if k % 2 == 0:
                p.interrupt(cause=k)

    env.process(interrupter())
    env.process(_release(env, gate))
    env.run()
    resumed = [i for i, tag in interrupted if tag == "resumed"]
    hit = sorted(i for i, tag in interrupted if tag != "resumed")
    assert hit == list(range(0, 50, 2))
    assert sorted(resumed) == list(range(1, 50, 2))


def _release(env, gate):
    yield env.timeout(2.0)
    gate.succeed()


def test_failed_event_with_only_tombstoned_waiters_still_propagates():
    # An interrupted process leaves a tombstone in the event's callback
    # list; if the event later fails with nobody real waiting, the
    # failure must still propagate out of run() (no silent failure).
    env = Environment()
    doomed = env.event()

    def waiter():
        try:
            yield doomed
        except Interrupt:
            yield env.timeout(100.0)

    proc = env.process(waiter())

    def driver():
        yield env.timeout(1.0)
        proc.interrupt()
        yield env.timeout(1.0)
        doomed.fail(RuntimeError("orphan failure"))

    env.process(driver())
    with pytest.raises(RuntimeError, match="orphan failure"):
        env.run()


def test_interrupt_twice_is_idempotent_on_callbacks():
    env = Environment()
    causes = []

    def waiter():
        while True:
            try:
                yield env.timeout(100.0)
                return
            except Interrupt as exc:
                causes.append(exc.cause)

    proc = env.process(waiter())

    def driver():
        yield env.timeout(1.0)
        proc.interrupt(cause="a")
        proc.interrupt(cause="b")

    env.process(driver())
    env.run(until=50.0)
    assert causes == ["a", "b"]


def test_every_shares_ticks_in_registration_order():
    env = Environment()
    calls = []

    def poller(label, stop_at=None):
        def fn():
            calls.append((label, env.now))
            # Only ``False`` drops the callback; 0.0 does not.
            return False if env.now == stop_at else 0.0
        return fn

    env.every(0.1, poller("a"))
    env.every(0.1, poller("b", stop_at=0.1 + 0.1))
    env.every(0.3, poller("c"))

    def late():
        yield env.timeout(0.05)
        env.every(0.1, poller("d"))    # a later start: its own grid

    env.process(late())
    env.run(until=0.35)
    grid = [0.1, 0.1 + 0.1, 0.1 + 0.1 + 0.1]   # accumulated, not k * 0.1
    d_grid = [0.05 + 0.1, 0.05 + 0.1 + 0.1, 0.05 + 0.1 + 0.1 + 0.1]
    assert [t for label, t in calls if label == "a"] == grid
    assert [t for label, t in calls if label == "b"] == grid[:2]
    assert [t for label, t in calls if label == "c"] == [0.3]
    assert [t for label, t in calls if label == "d"] == d_grid
    # Callbacks of one group run back to back, in registration order.
    at_first_tick = [label for label, t in calls if t == grid[0]]
    assert at_first_tick == ["a", "b"]
    with pytest.raises(ValueError):
        env.every(0.0, poller("e"))

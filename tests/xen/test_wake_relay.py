"""Differential tests: the credit scheduler's wake relay against ``AnyOf``.

The scheduler waits on "first of (work signal, period timer)" and "first
of (poll quantum, completion)" through :class:`repro.xen.credit._Wake`
instead of ``env.any_of``.  The relay must be a drop-in for the kernel:
the same heap pushes in the same order, so every process resumes at the
same ``(now, events_processed, queue_length)`` as it would under
``AnyOf``.  Each scenario here runs twice, once per mechanism, and the
resume logs must match exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.events import PENDING, Condition, Event, Timeout
from repro.units import MiB
from repro.xen.credit import _Wake


def first_of(env, mode, events):
    """The wait a scheduler would yield: ``AnyOf`` or the relay."""
    if mode == "anyof":
        return env.any_of(events)
    wake = _Wake(env)
    for event in events:
        event.callbacks.append(wake)
    return wake


def run_waits(mode, timers_ns, actions, *, notifier_first=False, timer_first=False):
    """One waiter, one notifier; returns the resume log and any escape.

    The waiter loops over ``timers_ns``: each round it arms a fresh work
    signal and a timer, and waits for the first of the two.  The
    notifier walks ``actions`` — ``(at_ns, "notify" | "fail")`` — and at
    each time does what ``PCPUScheduler.notify_work`` does (succeed a
    pending signal) or fails it instead.
    """
    env = Environment()
    log = []
    state = {"signal": None}

    def mark(tag):
        log.append((tag, env.now, env.events_processed, env.queue_length))

    def waiter(env):
        for timer_ns in timers_ns:
            signal = state["signal"] = Event(env)
            timer = Timeout(env, timer_ns)
            events = [timer, signal] if timer_first else [signal, timer]
            try:
                yield first_of(env, mode, events)
                mark("wake")
            except ValueError as exc:
                mark(f"failed:{exc}")
            state["signal"] = None

    def notifier(env):
        for at_ns, kind in actions:
            yield env.timeout(at_ns - env.now)
            mark(kind)
            signal = state["signal"]
            if signal is not None and signal._value is PENDING:
                if kind == "fail":
                    signal.fail(ValueError(f"boom@{env.now}"))
                else:
                    signal.succeed()

    procs = [(waiter, "waiter"), (notifier, "notifier")]
    if notifier_first:
        procs.reverse()
    for fn, name in procs:
        env.process(fn(env), name=name)
    escaped = None
    try:
        env.run()
    except ValueError as exc:
        escaped = str(exc)
    mark("end")
    return log, escaped


def assert_same(*args, **kwargs):
    anyof = run_waits("anyof", *args, **kwargs)
    relay = run_waits("relay", *args, **kwargs)
    assert relay == anyof
    return anyof


class TestRelayMatchesAnyOf:
    @pytest.mark.parametrize("timer_first", [False, True])
    def test_signal_first(self, timer_first):
        log, escaped = assert_same([10], [(5, "notify")], timer_first=timer_first)
        assert escaped is None
        assert ("wake", 5) == log[1][:2]

    @pytest.mark.parametrize("timer_first", [False, True])
    def test_timer_first(self, timer_first):
        log, escaped = assert_same([10], [(15, "notify")], timer_first=timer_first)
        assert escaped is None
        assert ("wake", 10) == log[0][:2]

    @pytest.mark.parametrize("notifier_first", [False, True])
    @pytest.mark.parametrize("timer_first", [False, True])
    def test_both_at_the_same_ns(self, notifier_first, timer_first):
        _, escaped = assert_same(
            [10],
            [(10, "notify")],
            notifier_first=notifier_first,
            timer_first=timer_first,
        )
        assert escaped is None

    def test_notify_inside_the_relay_window(self):
        # The waiter's timer is pushed before the notifier's timeout, so
        # at t=10 the timer fires first and the relay is on the heap but
        # not yet processed when the notifier succeeds the signal.  The
        # signal still gets its own push and dispatch; the relay ignores it.
        log, escaped = assert_same([10, 10], [(10, "notify"), (25, "notify")])
        assert escaped is None
        assert [entry[:2] for entry in log[:2]] == [("notify", 10), ("wake", 10)]

    @pytest.mark.parametrize("timer_first", [False, True])
    def test_failing_sub_event_is_defused_and_passed_on(self, timer_first):
        log, escaped = assert_same([10], [(5, "fail")], timer_first=timer_first)
        assert escaped is None
        assert log[1][0] == "failed:boom@5"

    def test_failure_after_the_wake_escapes_the_run(self):
        # Once the relay has fired it no longer listens, so a later
        # failure is nobody's to defuse — exactly as with AnyOf.
        _, escaped = assert_same([10, 10], [(10, "fail")])
        assert escaped == "boom@10"

    @given(
        timers=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
        gaps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=25),
                st.sampled_from(["notify", "notify", "notify", "fail"]),
            ),
            max_size=8,
        ),
        notifier_first=st.booleans(),
        timer_first=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_wait_sequences(self, timers, gaps, notifier_first, timer_first):
        actions = []
        at = 0
        for gap, kind in gaps:
            at += gap
            actions.append((at, kind))
        assert_same(
            timers, actions, notifier_first=notifier_first, timer_first=timer_first
        )


def test_managed_run_builds_no_condition(monkeypatch):
    """Fence: the scheduler hot path must not fall back to ``any_of``."""
    from repro.benchex import BenchExConfig
    from repro.experiments import build_scenario

    setup = build_scenario(
        "wake-relay-fence",
        interferer=BenchExConfig(name="interferer", buffer_bytes=2 * MiB),
        policy="ioshares",
        seed=7,
    )
    built = []
    original = Condition.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Condition, "__init__", counting_init)
    result = setup.execute(0.05)
    assert len(result.latencies_us) > 0
    assert built == []

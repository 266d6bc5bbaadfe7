import sys
import threading
import time
import types

import pytest

from spheresym import threads
from spheresym.threads import fan_out


def _no_pool(*args):
    raise AssertionError("a thread pool started")


def _returns_within(seconds, call):
    """Run ``call`` on a daemon thread; its exception, or fail if it has not returned in time."""
    outcome = []

    def run():
        try:
            call()
            outcome.append(None)
        except Exception as exc:  # handed back to the test
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "fan_out did not return"
    return outcome[0]


@pytest.mark.parametrize("states", [1, 2, 5])
def test_fan_out_runs_every_task_once(states):
    done = []
    fan_out(lambda state, task: done.append(task), list(range(100)), list(range(states)))
    assert sorted(done) == list(range(100))


def test_fan_out_one_state_runs_in_order_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(threads, "ThreadPoolExecutor", _no_pool)
    seen = []
    fan_out(lambda state, task: seen.append((state, task, threading.get_ident())), list(range(10)), ["s"])
    assert seen == [("s", task, threading.get_ident()) for task in range(10)]


def test_fan_out_uses_no_more_states_than_tasks(monkeypatch):
    monkeypatch.setattr(threads, "ThreadPoolExecutor", _no_pool)
    seen = []
    fan_out(lambda state, task: seen.append(state), ["only"], ["a", "b", "c"])
    assert seen == ["a"]


def test_fan_out_never_shares_a_state_between_threads():
    # More states than a small machine has cores, and frequent thread switches.
    lock = threading.Lock()
    states = [{"busy": False, "threads": set(), "done": 0} for _ in range(4)]
    clashes = []

    def work(state, task):
        with lock:
            if state["busy"]:
                clashes.append(task)
            state["busy"] = True
            state["threads"].add(threading.get_ident())
        time.sleep(0)  # let another thread run meanwhile
        state["done"] += 1  # unlocked: a second thread on this state could lose the update
        with lock:
            state["busy"] = False

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _returns_within(30, lambda: fan_out(work, list(range(400)), states)) is None
    finally:
        sys.setswitchinterval(interval)
    assert clashes == []
    assert all(len(state["threads"]) == 1 for state in states)
    assert sum(state["done"] for state in states) == 400


def test_fan_out_holds_openblas_at_one_thread_while_its_pool_runs(monkeypatch):
    count = [4]
    monkeypatch.setattr(threads, "openblas_thread_controls",
                        lambda: (lambda: count[0], lambda k: count.__setitem__(0, k)))
    for states, inside in [(1, 4), (2, 1), (3, 1)]:  # one state runs with no pool and no hold
        seen = []
        fan_out(lambda state, task: seen.append(count[0]), list(range(20)), list(range(states)))
        assert seen == [inside] * 20
        assert count == [4]


@pytest.mark.parametrize("failing", [{7}, set(range(20))])
@pytest.mark.parametrize("states", [1, 2])
def test_fan_out_propagates_an_exception_and_returns(states, failing):
    def work(state, task):
        if task in failing:
            raise ValueError(f"task {task}")

    exc = _returns_within(10, lambda: fan_out(work, list(range(20)), list(range(states))))
    assert isinstance(exc, ValueError)


def test_thread_limit_applies_threadpoolctl_limit_on_enter(monkeypatch):
    events = []

    class threadpool_limits:  # threadpoolctl's applies its limit when built
        def __init__(self, limits):
            events.append(("apply", limits))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append("restore")

    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = threadpool_limits
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
    limit = threads.thread_limit(3)
    assert limit is not None and events == []
    with limit:
        assert events == [("apply", 3)]
    assert events == [("apply", 3), "restore"]


def test_thread_limit_applies_openblas_limit_on_enter(monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    count = [4]
    monkeypatch.setattr(threads, "openblas_thread_controls",
                        lambda: (lambda: count[0], lambda k: count.__setitem__(0, k)))
    limit = threads.thread_limit(1)
    assert count == [4]
    with limit:
        assert count == [1]
    assert count == [4]

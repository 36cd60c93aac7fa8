"""The batch commands' item runner: input order, where each item runs, and which exception ends the run."""

import threading
import time

import pytest

from soundscapekit._runner import run_items


def test_results_come_back_in_input_order_when_later_items_finish_first():
    done = []

    def slow_first(item):
        time.sleep(0.05 * (3 - item))
        done.append(item)
        return item * 10

    results = run_items(slow_first, [0, 1, 2], jobs=2)
    assert [value for value, _ in results] == [0, 10, 20]
    assert done != [0, 1, 2]  # the pool finished a later item first


def test_serial_run_stops_at_the_first_exception():
    called = []

    def fail_on_one(item):
        called.append(item)
        if item == 1:
            raise KeyError(item)
        return item

    with pytest.raises(KeyError):
        run_items(fail_on_one, [0, 1, 2, 3], jobs=1)
    assert called == [0, 1]


def test_pool_raises_the_first_exception_in_input_order():
    def fail_on_one_and_three(item):
        time.sleep({1: 0.05, 3: 0.0}.get(item, 0.02))  # item 3 fails first
        if item in (1, 3):
            raise ValueError(item)
        return item

    with pytest.raises(ValueError, match="^1$"):
        run_items(fail_on_one_and_three, range(10), jobs=2)


def test_a_pool_failure_cancels_the_queued_items_once_the_running_ones_finish():
    called = []

    def fail_on_zero(item):
        if item == 0:
            raise ValueError(item)
        time.sleep(0.1 if item == 1 else 0.02)
        called.append(item)

    with pytest.raises(ValueError):
        run_items(fail_on_zero, range(40), jobs=2)
    assert 1 in called  # the item running beside the failure finished before the raise
    assert len(called) < 39  # the queue was dropped, not run out


@pytest.mark.parametrize("items", [[], [0], [0, 1, 2]])
def test_one_job_runs_every_item_on_the_calling_thread(items):
    results = run_items(lambda item: threading.get_ident(), items, jobs=1)
    assert [ident for ident, _ in results] == [threading.get_ident()] * len(items)


def test_a_single_item_runs_on_the_calling_thread_whatever_the_jobs():
    [(ident, _)] = run_items(lambda item: threading.get_ident(), ["only"], jobs=4)
    assert ident == threading.get_ident()


def test_wall_times_are_not_negative_and_cover_the_item():
    for jobs in (1, 2):
        results = run_items(time.sleep, [0.0, 0.02, 0.0], jobs=jobs)
        walls = [wall for _, wall in results]
        assert all(wall >= 0 for wall in walls)
        assert walls[1] >= 0.02

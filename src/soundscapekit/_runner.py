"""The one item runner of the batch commands: a serial or thread-pool map that times each item."""

import time
from concurrent.futures import ThreadPoolExecutor


def run_items(fn, items, jobs: int = 1) -> list:
    """[(fn(item), wall seconds)] for each of a sequence of items, in input order.

    One job, or fewer than two items, runs them on the calling thread, and the first exception stops
    the run; otherwise a pool of jobs threads runs them, and the first exception in input order (or an
    interrupt) cancels the items still queued and is raised once the running ones have finished.
    """
    def timed(item):
        t0 = time.perf_counter()
        return fn(item), time.perf_counter() - t0

    if jobs < 2 or len(items) < 2:
        return [timed(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(timed, items))

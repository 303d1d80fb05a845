"""A stand-in for ``ProcessPoolExecutor`` that starts no process.

It records the ``max_workers`` each pool is asked for and runs the work
in-process, so a test can check how many workers a call would start at
any ``jobs`` value, however large.
"""


def record_pools(monkeypatch, module, cpus):
    """Swap the fake into ``module`` and make ``os.cpu_count()`` return
    ``cpus``; returns the list the pools' ``max_workers`` are appended to.
    """
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(module, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(module.os, "cpu_count", lambda: cpus)
    return asked

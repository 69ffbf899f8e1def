import threading

import numpy as np
import pytest

from phasestab import bounds
from phasestab.grid import GridSpec


@pytest.fixture(scope="session")
def grid_1d():
    """Default 1-D working grid: T=16, N=1024, dx=1/32."""
    return GridSpec.uniform(1, 16.0, 1024)


@pytest.fixture(scope="session")
def grid_2d():
    """Default 2-D test grid: T=8, N=256 per axis."""
    return GridSpec.uniform(2, 8.0, 256)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cleared_record():
    """bounds.evaluate_theorem's record emptied: a test that patches a stage or
    counts transforms sees its own pass, whatever test ran before it."""
    bounds._record = None


@pytest.fixture
def transforms(monkeypatch, cleared_record):
    """The shapes of the fields that the pair pass transforms, in order: f's
    and g's for each of its ``grid._centred_pair`` calls."""
    shapes = []
    centred_pair = bounds._centred_pair

    def counted(f, g, scale):
        shapes.extend((f.shape, g.shape))
        return centred_pair(f, g, scale)

    monkeypatch.setattr(bounds, "_centred_pair", counted)
    return shapes


@pytest.fixture
def no_thread_outlives_the_call():
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture
def executors(monkeypatch):
    """Counts of the executors that grid._run_parts opens: ``opened`` in
    all, ``most`` open at once and ``workers``, the most workers one had."""
    import concurrent.futures

    counts = {"opened": 0, "open": 0, "most": 0, "workers": 0}
    lock = threading.Lock()

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __enter__(self):
            with lock:
                counts["opened"] += 1
                counts["open"] += 1
                counts["most"] = max(counts["most"], counts["open"])
                counts["workers"] = max(counts["workers"], self._max_workers)
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                with lock:
                    counts["open"] -= 1

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return counts

"""The time limit of a case marked large(seconds=N): it fails when it runs
for N seconds or more."""

import time

import pytest


@pytest.fixture(autouse=True)
def _large_time_limit(request):
    marker = request.node.get_closest_marker("large")
    start = time.perf_counter()
    yield
    if marker is not None:
        elapsed, limit = time.perf_counter() - start, marker.kwargs["seconds"]
        assert elapsed < limit, f"took {elapsed:.1f} s, over its limit of {limit} s"

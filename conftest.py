"""Pytest bootstrap.

The execution environment used for this reproduction is fully offline and has
no ``wheel`` package, so PEP 660 editable installs are unavailable.  Adding
``src/`` to ``sys.path`` here keeps ``pytest`` runnable straight from a source
checkout; when the package is properly installed this is a harmless no-op
(the installed distribution takes precedence only if it appears earlier on the
path, and both point at the same files in develop mode).

This conftest also registers the opt-in ``bench_smoke`` marker: tests carrying
it (the ``benchmarks/run_all.py`` smoke suite) are skipped unless pytest is
invoked with ``--bench-smoke``, so the default tier-1 run stays fast while the
benchmark scripts can still be exercised in CI.

Finally, shared-memory leaks are promoted from exit-time chatter to test
failures: in-process ``resource_tracker`` warnings error out, and a
session-scoped fixture snapshots ``/dev/shm`` so a segment left behind by a
test (the tracker process only *prints* about those at interpreter exit,
after every test has already passed) fails the run with the leaked names.
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently in /dev/shm.

    Restricted to the ``psm_`` prefix :mod:`multiprocessing.shared_memory`
    generates, so unrelated system segments never trip the leak check.  On
    platforms without a /dev/shm the check degrades to a no-op.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    return {path.name for path in shm_dir.glob("psm_*")}


@pytest.fixture
def shm_segments():
    """The /dev/shm snapshot helper, shared with the session leak fixture."""
    return _shm_segments


@pytest.fixture(scope="session", autouse=True)
def fail_on_leaked_shared_memory():
    """Turn leaked shared-memory segments into a test failure.

    /dev/shm is host-global, so a segment created by an *unrelated* process
    during the run would also trip this check — an accepted trade-off for a
    single-tenant CI container, where the alternative (leaks scrolling by
    as exit-time chatter) hides real bugs.  Run the suite alone.
    """
    baseline = _shm_segments()
    yield
    leaked = _shm_segments() - baseline
    assert not leaked, (
        f"test run leaked shared-memory segments: {sorted(leaked)} — "
        "a domain evaluator was not close()d, or a failure path "
        "skipped shm.unlink() (the domain backend creates one segment per "
        "histogram slice, so a mid-_start failure must unwind every slice "
        "segment already created, not just the first)"
    )


def pytest_addoption(parser):
    parser.addoption(
        "--bench-smoke",
        action="store_true",
        default=False,
        help="run the opt-in benchmark smoke tests (tiny-size benchmark execution)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_smoke: opt-in benchmark smoke execution (enable with --bench-smoke)",
    )
    # Resource-tracker leak reports raised in-process (e.g. a tracked
    # segment garbage-collected without unlink) must fail the test that
    # caused them, not scroll by as warnings.
    config.addinivalue_line("filterwarnings", "error:resource_tracker")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--bench-smoke"):
        return
    skip_marker = pytest.mark.skip(reason="benchmark smoke tests need --bench-smoke")
    for item in items:
        if "bench_smoke" in item.keywords:
            item.add_marker(skip_marker)

"""Shared fixtures for the test suite.

``--fuzz-seed`` seeds the differential fuzz harness
(``tests/test_engine_differential.py``): the default keeps local runs
reproducible, while CI passes explicit seeds per matrix leg so the harness
explores different instances under ``PYTHONHASHSEED=random`` without losing
the ability to replay a failure (``pytest --fuzz-seed <N>``).

``--full-ordering-sweep`` widens ``tests/test_engine_ordering.py``'s
clause-order sweep from tier-1's 4 formulas x 8 orders to the 12 x 24 CI
runs (``-k ordering_sweep --full-ordering-sweep``, about two minutes).

``--full-fault-sweep`` makes ``tests/test_engine_faults.py``'s persistent
read-fault sweep re-run its evaluation at *every* one of its ~960 read
positions (CI's fault-matrix job) instead of tier-1's ends-plus-stride.

Every test runs under a tripwire on the interpreter's collector switch: the
engine's drain pauses automatic collection process-wide
(``docs/ENGINE.md``, rule 7), and a pause that leaked would silently change
the memory behaviour of every test after it.
"""

import gc

import pytest

DEFAULT_FUZZ_SEED = 20260730


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-seed",
        type=int,
        default=DEFAULT_FUZZ_SEED,
        help="base seed for the engine differential fuzz harness",
    )
    parser.addoption(
        "--full-ordering-sweep",
        action="store_true",
        help="run the 12-formula x 24-order R_G clause-order sweep (CI)",
    )
    parser.addoption(
        "--full-fault-sweep",
        action="store_true",
        help="sweep a persistent spill-read fault over every read position (CI)",
    )


@pytest.fixture(autouse=True)
def collector_switch_is_handed_back(request):
    """Fail, by name, a test that leaves ``gc.isenabled()`` changed."""
    before = gc.isenabled()
    yield
    if gc.isenabled() != before:
        (gc.enable if before else gc.disable)()  # the next test starts clean
        pytest.fail(
            f"{request.node.nodeid} left the cyclic collector "
            f"{'disabled' if before else 'enabled'} (it was not before)"
        )


@pytest.fixture
def full_ordering_sweep(request):
    """Whether the clause-order sweep runs in full (CI) or tier-1's slice."""
    return request.config.getoption("--full-ordering-sweep")


@pytest.fixture
def full_fault_sweep(request):
    """Whether the read-fault sweep visits every position (CI) or a stride."""
    return request.config.getoption("--full-fault-sweep")


@pytest.fixture
def fuzz_seed(request):
    """The base seed the differential fuzz harness derives its cases from."""
    return request.config.getoption("--fuzz-seed")

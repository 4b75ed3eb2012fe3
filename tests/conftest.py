import pytest
from hypothesis import settings

from quiddity import polygons

# Shared machines stall for long stretches; a deadline would time the machine.
# Loaded before any test module is imported, so every @settings inherits it.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

_acceptance_results = {}


@pytest.fixture(scope="session")
def quiddities_by_n():
    """All quiddity sequences of length n, for n = 3..12, keyed by n."""
    return {n: list(polygons.iter_quiddities(n)) for n in range(3, 13)}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        outcome = _acceptance_results[nodeid]
        tag = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{tag}  {nodeid.split('::')[-1]}")

import pytest

from relaysense import mcsim

# One verdict line per acceptance criterion, echoed after the test table so
# the gate's outcome survives in captured CI logs.
acceptance_lines = []


@pytest.fixture(autouse=True)
def empty_held_slot():
    """Each test starts with mcsim's held slot empty, so no test replays
    draws, or reads a frame simulator's state, that another test left held."""
    mcsim.clear_held()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)

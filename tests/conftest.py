import pytest

from lucaspf.lucas import SeqKind, validate_params
from lucaspf.pipeline import run_general_cascade, run_real_cascade, run_unit_case

# one PASS/FAIL line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


@pytest.fixture
def verdict():
    def _record(num, description, ok):
        line = f"{'PASS' if ok else 'FAIL'}  criterion {num:>2}: {description}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return _record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fib_params():
    return validate_params(1, 1)


@pytest.fixture(scope="session")
def general_u():
    # the full five-stage scan (about 2.6 s), shared by every test that reads it
    return run_general_cascade(SeqKind.U)


@pytest.fixture(scope="session")
def general_v():
    # the kind=V cascade end to end: its reports are built and halved from the
    # same results table as kind U's
    return run_general_cascade(SeqKind.V)


@pytest.fixture(scope="session")
def real_u():
    return run_real_cascade(SeqKind.U)


@pytest.fixture(scope="session")
def unit_u(fib_params):
    return run_unit_case(fib_params, SeqKind.U)

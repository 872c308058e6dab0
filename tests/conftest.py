"""Shared test plumbing.

Acceptance tests register one line per criterion here; the terminal summary
hook replays them in order at the end of the run so the pass/fail verdicts
are visible even under plain ``pytest`` output capture.
"""

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def assert_record(got, want) -> None:
    """got == want, and got is a record of want's type.  The result records
    are NamedTuples, which compare as plain tuples, so Finite(8),
    FiniteOrder(8) and (8,) are all equal; only the type tells a verdict
    from an element order."""
    assert type(got) is type(want), f"{got!r} is not a {type(want).__name__}"
    assert got == want

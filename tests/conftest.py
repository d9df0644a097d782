import re

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_outcomes = {}
_durations = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call":
        _outcomes[n] = report.outcome
        _durations[n] = report.duration
    elif report.when == "setup" and report.outcome != "passed":
        _outcomes[n] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_outcomes):
        verdict = "PASS" if _outcomes[n] == "passed" else "FAIL"
        line = f"[criterion {n}] {verdict}"
        if n in _durations:
            line += f" {_durations[n]:.1f} s"
        terminalreporter.write_line(line)

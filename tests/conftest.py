"""Every test run ends with each test file's total call time, slowest
first, so the cost of a file's tests shows without a profiler."""

from collections import defaultdict


def pytest_terminal_summary(terminalreporter):
    totals = defaultdict(float)
    for reports in terminalreporter.stats.values():
        for report in reports:
            if getattr(report, "when", None) == "call":
                totals[report.nodeid.split("::")[0]] += report.duration
    if totals:
        terminalreporter.write_sep("=", "call time per test file")
        for path, seconds in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])):
            terminalreporter.write_line(f"{seconds:7.2f}s {path}")

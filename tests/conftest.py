import os

from hypothesis import settings

# Property tests draw few, fixed examples by default so Tier-1 stays fast
# and repeatable; CI sets HYPOTHESIS_PROFILE=ci for a wider random search.
# A solver run inside one example can outlast hypothesis's default deadline
# on a slow runner.
settings.register_profile("dev", max_examples=20, deadline=None, derandomize=True)
settings.register_profile("ci", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_terminal_summary(terminalreporter):
    """Report the drift tests/test_golden.py measures on rows it does not gate."""
    drifts = [
        (value, report.nodeid)
        for key in ("passed", "failed")
        for report in terminalreporter.stats.get(key, [])
        for name, value in report.user_properties
        if name == "ungated_drift"
    ]
    if drifts:
        value, nodeid = max(drifts)
        terminalreporter.write_line(
            f"golden traces: largest relative drift on rows with eps < 1e-3: {value:.3g} ({nodeid})"
        )

"""Shared pytest plumbing: a visible one-line verdict per acceptance criterion, and a
kernel-block pool of a chosen size."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from sievesim import kernels

_CRITERION_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Store and print the verdict line for one acceptance criterion."""
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'}  {detail}"
    _CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def kernel_pool(monkeypatch):
    """``kernel_pool(threads)`` puts a kernel-block pool of ``threads`` threads in
    place of the process's one for the rest of the test."""
    pools = []

    def use(threads: int) -> None:
        pools.append(ThreadPoolExecutor(threads, thread_name_prefix="sievesim-kernel"))
        monkeypatch.setattr(kernels, "_pool", pools[-1])

    yield use
    for pool in pools:
        pool.shutdown()

"""Shared fixtures: suite start time and the session-wide oracle harness."""

import time

import pytest

from fockabs import verify_closed_forms

SUITE_START = time.monotonic()


@pytest.fixture(scope="session")
def suite_start() -> float:
    return SUITE_START


@pytest.fixture(scope="session")
def harness_run():
    """One 100-trial closed-form-vs-oracle run shared by the acceptance tests.

    Returns (report, elapsed_seconds).
    """
    start = time.monotonic()
    report = verify_closed_forms(100, seed=2024)
    return report, time.monotonic() - start

"""Shared fixtures: suite start time and the session-wide oracle harness."""

import time

import pytest

from fockabs.verify import tally
from helpers import verify_records

SUITE_START = time.monotonic()


@pytest.fixture(scope="session")
def suite_start() -> float:
    return SUITE_START


@pytest.fixture(scope="session")
def harness_run():
    """One 100-trial closed-form-vs-oracle run shared by the acceptance tests.

    Returns (records, their tally, elapsed_seconds).
    """
    start = time.monotonic()
    records = verify_records(100, seed=2024)
    return records, tally(records), time.monotonic() - start

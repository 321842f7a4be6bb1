"""Byte-identity of the command-line output, of moved verdicts and of the conic solver.

The digests and the functions that compute them are in `golden.py`, which
also runs as a plain script; see its docstring.
"""

import tempfile

import pytest

import golden
from golden import (
    GOLDEN_CLI_SHA256,
    GOLDEN_LEAVING_BIGRADED_SHA256,
    GOLDEN_MOVED_CHECK_SHA256,
    GOLDEN_MOVED_SUMS_BETTI_SHA256,
    GOLDEN_MOVED_SUMS_CHECK_SHA256,
    GOLDEN_REPORT_SHA256,
    GOLDEN_RESHUFFLED_BIGRADED_SHA256,
    GOLDEN_RESHUFFLED_VERIFY_SHA256,
    GOLDEN_SOLVE_TERNARY_SHA256,
)


@pytest.fixture(scope="module")
def exported():
    """Every catalog entry exported with its sidecars: key -> written paths."""
    with tempfile.TemporaryDirectory() as directory:
        yield golden.export_catalog(directory)


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI_SHA256))
def test_cli_json_output_matches_golden_digest(exported, command):
    assert golden.cli_digest(exported, command) == GOLDEN_CLI_SHA256[command]


def test_report_json_output_matches_golden_digest():
    assert golden.report_digest() == GOLDEN_REPORT_SHA256


def test_moved_check_verdicts_match_golden_digest():
    assert golden.moved_check_digest() == GOLDEN_MOVED_CHECK_SHA256


def test_moved_two_step_sum_verdicts_match_golden_digest():
    assert golden.moved_sums_check_digest() == GOLDEN_MOVED_SUMS_CHECK_SHA256


def test_moved_sum_betti_numbers_and_representatives_match_golden_digest():
    assert golden.moved_sums_betti_digest() == GOLDEN_MOVED_SUMS_BETTI_SHA256


def test_reshuffled_and_moved_bigraded_cohomology_match_golden_digest():
    assert golden.reshuffled_bigraded_digest() == GOLDEN_RESHUFFLED_BIGRADED_SHA256


def test_reshuffled_and_moved_verification_reports_match_golden_digest():
    assert golden.reshuffled_verify_digest() == GOLDEN_RESHUFFLED_VERIFY_SHA256


def test_gradings_whose_brackets_leave_a_present_target_match_golden_digest():
    # Every failing bracket of these runs lands in a bidegree the grading
    # has, so the grading table leaves the solved path by its membership
    # test alone.
    assert sum(1 for _ in golden._leaving_runs()) == 120
    assert golden.leaving_bigraded_digest() == GOLDEN_LEAVING_BIGRADED_SHA256


def test_solve_ternary_matches_golden_digest():
    assert golden.solve_ternary_digest() == GOLDEN_SOLVE_TERNARY_SHA256

"""Acceptance gate: runs the full validation suite once through the CLI and
asserts every criterion at its pinned tolerance, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to watch the live
progress lines).  The same checks are reachable from the shell via
`cwf validate`.  Every test here carries the `acceptance` marker, so
`pytest -m "not acceptance"` runs the rest of the suite without them.
"""

import csv
import hashlib
import io

import pytest

from cwf.cli import EXIT_OK, main

pytestmark = pytest.mark.acceptance

CRITERIA = {
    1: "awgn_lengths_vs_simulation",
    2: "single_user_reduction",
    3: "interference_cancellation_gain",
    4: "queue_bound_consistency",
    5: "fading_lengths_vs_simulation",
    6: "union_bound_error_rate",
    7: "waterfill_threshold_grid",
    8: "quadrature_oracle",
    9: "exponential_order_statistics",
    10: "byte_identical_reruns",
}


@pytest.fixture(scope="module")
def validate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "validate_report.csv"
    exit_code = main(["validate", "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = {int(r["criterion"]): r for r in csv.DictReader(io.StringIO("\n".join(body)))}
    return exit_code, rows, text


def _check(rows, index):
    row = rows[index]
    print(f"criterion {index:2d} [{row['verdict']}] {row['name']}: "
          f"observed {row['observed']} (tolerance {row['tolerance']})")
    assert row["name"] == CRITERIA[index]
    assert row["verdict"] == "pass", f"criterion {index} failed: {row}"


def test_report_complete_and_exit_zero(validate_run):
    exit_code, rows, _ = validate_run
    assert sorted(rows) == list(range(1, 11))
    assert exit_code == EXIT_OK


def test_report_bytes_are_pinned(validate_run):
    # golden bytes of the whole report at the default seed: a refactor that
    # claims an unchanged report is checked here
    _, _, text = validate_run
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "0c4f3f06b21ada164e390ab98a5f0b401f49407164d8b740c827d6f484d423a7")


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(validate_run, index):
    _, rows, _ = validate_run
    _check(rows, index)

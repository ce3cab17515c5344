import json
from pathlib import Path

import pytest
from mpmath import mp, mpf, mpmathify

from dfreud import NumericContext

#: each check of ``dfreud verify --suite all`` at the default precisions, by id
VERIFY_GOLDEN = {row["id"]: row for row in json.loads(
    (Path(__file__).parent / "golden" / "verify_all.json").read_text(encoding="utf-8"))}


@pytest.fixture
def ctx60():
    return NumericContext(digits=60)


@pytest.fixture
def ctx100():
    return NumericContext(digits=100)


def assert_close(actual, expected, tol, dps: int = 60):
    """Absolute closeness at a chosen comparison precision."""
    with mp.workdps(dps):
        a, e, t = mpmathify(actual), mpmathify(expected), mpmathify(tol)
        assert abs(a - e) <= t, f"|{a} - {e}| = {abs(a - e)} > {t}"


def assert_rel(actual, expected, tol, dps: int = 60):
    with mp.workdps(dps):
        a, e, t = mpmathify(actual), mpmathify(expected), mpmathify(tol)
        assert abs(a - e) <= t * abs(e), f"rel err {abs(a - e) / abs(e)} > {t}"

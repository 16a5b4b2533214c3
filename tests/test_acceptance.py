"""Acceptance gate: each test runs one criterion of the built-in suite and
prints its [PASS]/[FAIL] line.  `matroidlab verify paper` runs the same nine
checks from the command line.

Set MATROIDLAB_R10_EXHAUSTIVE=1 to extend criterion 4 from the reproducible
10,000-ordering sample to the full 2,332,800-ordering scan (about 5
CPU-minutes).
"""

import os
from types import SimpleNamespace

import pytest

from matroidlab import verify
from matroidlab.verify import run_criterion


def _check(capsys, number, **kwargs):
    r = run_criterion(number, **kwargs)
    with capsys.disabled():
        print(r.line())
    assert r.passed, r.line()


def test_criterion_1_free_uniform_tower(capsys):
    _check(capsys, 1)


def test_criterion_2_circuit_uniform_tower(capsys):
    _check(capsys, 2)


def test_criterion_3_dual_k33(capsys):
    _check(capsys, 3)


def test_criterion_4_r10_search(capsys):
    exhaustive = os.environ.get("MATROIDLAB_R10_EXHAUSTIVE", "") not in ("", "0")
    _check(capsys, 4, r10_exhaustive=exhaustive)


@pytest.mark.parametrize("workers", (1, None))
def test_exhaustive_r10_scan_takes_the_worker_count_as_given(monkeypatch, workers):
    # None leaves the count to search_orderings: MATROIDLAB_WORKERS, else 1
    calls = []

    def record(m, field, policy, workers):
        calls.append((policy, workers))
        return SimpleNamespace(checked=0, tallies={})

    monkeypatch.setattr(verify, "search_orderings", record)
    verify._r10_search(exhaustive=True, workers=workers)
    assert calls[-1] == ("exhaustive", workers)


def test_criterion_5_glued_families(capsys):
    _check(capsys, 5)


def test_criterion_6_incidence_identities(capsys):
    _check(capsys, 6)


def test_criterion_7_recursions(capsys):
    _check(capsys, 7)


def test_criterion_8_oracle_agreement(capsys):
    _check(capsys, 8)


def test_criterion_9_order_invariance(capsys):
    _check(capsys, 9)

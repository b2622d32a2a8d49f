"""Every acceptance criterion, driven through the same registry as the CLI.

Each criterion is exact (symbolic equality, zero tolerance).  Criterion 7
has a long-running decorated hopf case that only runs under
``-m extended``; the default run covers its unknot cases.  Criterion 10
is the determinism contract on `acceptance run` itself, checked here by
invoking the full battery twice and comparing bytes.
"""

import hashlib

import pytest

from skeinkit.cli import ACCEPTANCE_CRITERIA, run

BY_NUMBER = {criterion.number: criterion for criterion in ACCEPTANCE_CRITERIA}


def test_registry_is_complete_and_ordered():
    assert [criterion.number for criterion in ACCEPTANCE_CRITERIA] == list(range(1, 11))


@pytest.mark.parametrize(
    "criterion", ACCEPTANCE_CRITERIA, ids=[f"{c.number:02d}" for c in ACCEPTANCE_CRITERIA]
)
def test_criterion_passes(criterion):
    passed, detail = criterion.runner(False)
    assert passed, f"criterion {criterion.number} ({criterion.title}): {detail}"


@pytest.mark.extended
def test_criterion_seven_extended_hopf_case():
    # decorated doubling on the hopf link: largest term near 32 crossings
    passed, detail = BY_NUMBER[7].runner(True)
    assert passed, detail


def test_acceptance_run_twice_is_byte_identical():
    first = run(["acceptance", "run"])
    second = run(["acceptance", "run"])
    assert first == second
    assert first[0] == 0
    # sha256 of the battery's report: every criterion's title and detail
    assert hashlib.sha256(first[1].encode()).hexdigest() == (
        "688d47258a5bb0d05cbe180bfcebbba306af059ae61326ba4ea9126b56f9cfed"
    )

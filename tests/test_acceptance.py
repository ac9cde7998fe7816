"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them, or `python -m rankcert selftest` for the same checks.
"""

import random

import pytest

from rankcert import acceptance, parse_ring


def _run(fn):
    res = fn()
    print(res.line())
    assert res.passed, res.line()
    return res


@pytest.mark.parametrize(
    "spec", ["Z/2", "Z/8", "Z/9", "F2[x]/x^3", "F3[x]/x^2", "F5[x]/x^3", "F2*F3*F5", "F4*F9"]
)
def test_random_value_is_the_draw_from_the_element_list(spec):
    # the suite's draws, and so every selftest and axioms-check answer, stay
    # those of rng.choice(ring.elements()), random state included
    ring = parse_ring(spec)
    elements = ring.elements()
    for seed in range(3):
        rng, listed = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert acceptance._random_value(ring, rng) == listed.choice(elements)
        assert rng.getstate() == listed.getstate()


def test_criterion_01_local_order_equivalence():
    res = _run(acceptance.criterion_local_order_equivalence)
    assert res.elapsed < 60.0


def test_criterion_02_rank_values_exact():
    _run(acceptance.criterion_rank_values_exact)


def test_criterion_03_rk_square():
    res = _run(acceptance.criterion_rk_square)
    assert res.elapsed < 10.0


def test_criterion_04_state_range():
    _run(acceptance.criterion_state_range)


def test_criterion_05_sylvester_axioms():
    _run(acceptance.criterion_sylvester_axioms)


def test_criterion_06_minor_lemma():
    _run(acceptance.criterion_minor_lemma)


def test_criterion_07_regular_three_way():
    res = _run(acceptance.criterion_regular_three_way)
    assert res.elapsed < 120.0


def test_criterion_08_grothendieck():
    _run(acceptance.criterion_grothendieck)


def test_criterion_09_normal_form_invariance():
    _run(acceptance.criterion_normal_form_invariance)


def test_criterion_10_existence():
    _run(acceptance.criterion_existence)

"""Barenco-style recursion: exact X-Toffoli, gate counts, angle range."""

import numpy as np
import pytest

from toffoli_forge import baseline, ir, sim

GOLDEN_3 = (
    ir.cprx(ir.dyadic(1, 1), 1, 2),
    ir.cprx(ir.dyadic(1, 0), 0, 1),
    ir.cprx(ir.dyadic(-1, 1), 1, 2),
    ir.cprx(ir.dyadic(1, 0), 0, 1),
    ir.cprx(ir.dyadic(1, 1), 0, 2),
)


def x_toffoli(n: int) -> np.ndarray:
    dim = 1 << n
    u = np.eye(dim)
    u[[dim - 2, dim - 1]] = u[[dim - 1, dim - 2]]
    return u


def test_golden_n3():
    assert baseline.barenco_toffoli(3).gates == GOLDEN_3


def test_n3_is_exact_x_toffoli():
    u = sim.unitary_of(baseline.barenco_toffoli(3))
    assert np.max(np.abs(u - x_toffoli(3))) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_x_toffoli(n):
    # equality on the nose, no global-phase quotient: CPRX carries the phase
    u = sim.unitary_of(baseline.barenco_toffoli(n))
    assert np.max(np.abs(u - x_toffoli(n))) <= 1e-10


@pytest.mark.parametrize("n", range(2, 10))
def test_gate_count_recursion(n):
    c = baseline.barenco_toffoli(n)
    c.validate()
    assert len(c.gates) == baseline.barenco_gate_count(n) == 2 * 3 ** (n - 2) - 1
    assert all(g.kind == ir.CPRX for g in c.gates)


def test_count_matches_stated_recursion():
    t = {2: 1}
    r = {2: 1}
    for m in range(3, 13):
        t[m] = 2 + 2 * t[m - 1] + r[m - 1]
        r[m] = 2 + 2 * t[m - 1] + r[m - 1]
    for n in range(2, 13):
        assert baseline.barenco_gate_count(n) == t[n]


@pytest.mark.parametrize("n", (3, 5, 8, 12))
def test_angle_exponents_bounded(n):
    exps = {g.angle.den_exp for g in baseline.barenco_toffoli(n).gates}
    assert max(exps) == n - 2
    assert exps == set(range(n - 1))


def test_width_limits():
    with pytest.raises(ValueError):
        baseline.barenco_toffoli(1)
    with pytest.raises(ValueError):
        baseline.barenco_toffoli(13)
    with pytest.raises(ValueError):  # the count shares the construction's cap
        baseline.barenco_gate_count(13)


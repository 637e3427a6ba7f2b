"""High-order series operations against mpmath at 30 digits.

The inputs are units whose coefficients decay like 0.3^n, so every exact
coefficient of the results stays of order one.  Errors are measured per
coefficient relative to max(1, |exact|); the bounds were fixed before the
first run.
"""

import mpmath
import numpy as np
import pytest

from parafold.series import TruncatedSeries

RECIPROCAL_BOUND = 1e-12
KTH_ROOT_BOUND = 1e-12
REVERSION_BOUND = 1e-9


def _decaying_unit(rng, order, c0):
    c = (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)) * 0.3 ** np.arange(
        order + 1
    )
    c[0] = c0
    return c


def _mp(c):
    return [mpmath.mpc(complex(x)) for x in c]


def _mp_reciprocal(c):
    """1/s by the recurrence b_n = -(c_1 b_{n-1} + ... + c_n b_0) / c_0."""
    b = [1 / c[0]]
    for n in range(1, len(c)):
        b.append(-mpmath.fsum(c[j] * b[n - j] for j in range(1, n + 1)) / c[0])
    return b


def _mp_power(c, alpha, order):
    """s^alpha up to ``order`` by J.C.P. Miller's recurrence
    p_n = sum_{j=1}^n ((alpha + 1) j - n) c_j p_{n-j} / (n c_0)."""
    p = [c[0] ** alpha]
    for n in range(1, order + 1):
        terms = (((alpha + 1) * j - n) * c[j] * p[n - j] for j in range(1, n + 1))
        p.append(mpmath.fsum(terms) / (n * c[0]))
    return p


def _worst_error(got, exact):
    return max(
        float(abs(mpmath.mpc(complex(g)) - e) / max(1, abs(e))) for g, e in zip(got, exact)
    )


@pytest.mark.parametrize("order", [80, 160])
def test_reciprocal(order):
    rng = np.random.default_rng(order)
    with mpmath.workdps(30):
        for _ in range(3):
            c = _decaying_unit(rng, order, np.exp(2j * np.pi * rng.random()))
            got = TruncatedSeries(c).reciprocal().coefficients
            assert _worst_error(got, _mp_reciprocal(_mp(c))) < RECIPROCAL_BOUND


@pytest.mark.parametrize("order", [80, 160])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kth_root(order, k):
    rng = np.random.default_rng(10 * order + k)
    with mpmath.workdps(30):
        c = _decaying_unit(rng, order, 1.0)
        got = TruncatedSeries(c).kth_root(k).coefficients
        assert _worst_error(got, _mp_power(_mp(c), mpmath.mpf(1) / k, order)) < KTH_ROOT_BOUND


def test_reversion_order_80():
    # Lagrange inversion: for f = x s(x), [x^n] f^{-1} = [w^{n-1}] s(w)^{-n} / n
    order = 80
    rng = np.random.default_rng(80)
    with mpmath.workdps(30):
        for _ in range(2):
            s = _decaying_unit(rng, order - 1, np.exp(2j * np.pi * rng.random()))
            got = TruncatedSeries(np.concatenate([[0.0], s])).reversion().coefficients
            ms = _mp(s)
            exact = [mpmath.mpc(0)]
            exact += [_mp_power(ms, -n, n - 1)[n - 1] / n for n in range(1, order + 1)]
            assert _worst_error(got, exact) < REVERSION_BOUND

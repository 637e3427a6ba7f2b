"""High-order series operations and the interpolant Q_eps against mpmath.

The series inputs of the first tests are units whose coefficients decay like
0.3^n, and errors are measured per coefficient relative to max(1, |exact|):
past degree about 35 that bounds them only absolutely.  The reciprocal and
root cases with 0.9^n and 0.7^n decay keep the exact coefficients away from
zero and bound each one relative to its own size, and so does the reversion at
order 160.  A composition coefficient is a sum of products that may cancel
wherever the random outer coefficients do, so it is bounded relative to the
size of its terms, sum_d |outer_d| (|inner|^d)_j, to which the rounding of
any summation order is proportional.  ``lagrange_Q`` is checked against a
60-digit Vandermonde solve down to |eps| = 1e-30.  ``canonicalize`` is
checked at orders 80 and 160 for k = 1..4 on sigma with 0.7^n decay and
|sigma(0)| = 1: its map h at sampled degrees, from the k-th root recurrence
and Lagrange inversion of l at 30 digits, and its inverse l(delta/a) at
every degree, each coefficient relative to its own size, bound 1e-11.  The
bounds were fixed before the first run.
"""

import mpmath
import numpy as np
import pytest
from conftest import horner_compose

from parafold.normal_forms import lagrange_Q
from parafold.series import TruncatedSeries
from parafold.unfolding import EigenvalueFunction, canonicalize

RECIPROCAL_BOUND = 1e-12
KTH_ROOT_BOUND = 1e-12
REVERSION_BOUND = 1e-9
SLOW_DECAY_BOUND = 1e-11
COMPOSE_BOUND = 1e-13
LAGRANGE_BOUND = 1e-13
CANONICALIZE_BOUND = 1e-11


def _decaying(rng, order, decay):
    c = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    return c * decay ** np.arange(order + 1)


def _decaying_unit(rng, order, c0, decay=0.3):
    c = _decaying(rng, order, decay)
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


def _mp_compose(outer, inner):
    """outer(inner) truncated at order len - 1, by Horner's rule."""
    n = len(outer) - 1
    acc = [outer[n]] + [mpmath.mpc(0)] * n
    for d in range(n - 1, -1, -1):
        acc = [mpmath.fdot(acc[: j + 1], inner[j::-1]) for j in range(n + 1)]
        acc[0] += outer[d]
    return acc


def _lagrange_reversion(s, degrees):
    """[x^n] of the inverse of x s(x) for n in ``degrees``, by Lagrange
    inversion: [x^n] f^{-1} = [w^{n-1}] s(w)^{-n} / n."""
    return [_mp_power(s, -n, n - 1)[n - 1] / n for n in degrees]


def _worst_error(got, exact, floor=1):
    """Largest error of ``got`` relative to max(floor, |exact|)."""
    return max(
        float(abs(mpmath.mpc(complex(g)) - e) / max(floor, abs(e))) for g, e in zip(got, exact)
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


@pytest.mark.parametrize("order", [80, 160])
@pytest.mark.parametrize("decay", [0.9, 0.7])
def test_reciprocal_slow_decay(order, decay):
    rng = np.random.default_rng(order + int(10 * decay))
    with mpmath.workdps(40):
        c = _decaying_unit(rng, order, 2 * np.exp(2j * np.pi * rng.random()), decay)
        got = TruncatedSeries(c).reciprocal().coefficients
        assert _worst_error(got, _mp_reciprocal(_mp(c)), floor=0) < SLOW_DECAY_BOUND


@pytest.mark.parametrize("order", [80, 160])
@pytest.mark.parametrize("decay", [0.9, 0.7])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_kth_root_slow_decay(order, decay, k):
    rng = np.random.default_rng(10 * order + k + int(10 * decay))
    with mpmath.workdps(40):
        c = 0.5 * _decaying_unit(rng, order, 2.0, decay)
        got = TruncatedSeries(c).kth_root(k).coefficients
        exact = _mp_power(_mp(c), mpmath.mpf(1) / k, order)
        assert _worst_error(got, exact, floor=0) < SLOW_DECAY_BOUND


def _mp_interpolant(c, k, eps):
    """Q_eps by an LU solve of the Vandermonde system at the exact roots of
    delta^{k+1} = eps; at eps = 0 the Taylor polynomial, its limit."""
    if eps == 0:
        return _mp(c[: k + 1])
    root = mpmath.root(mpmath.mpc(complex(eps)), k + 1)
    nodes = [root * mpmath.expjpi(mpmath.mpf(2 * m) / (k + 1)) for m in range(k + 1)]
    values = [mpmath.polyval(_mp(c[::-1]), x) for x in nodes]
    vander = mpmath.matrix([[x**j for j in range(k + 1)] for x in nodes])
    return mpmath.lu_solve(vander, mpmath.matrix(values))


def test_lagrange_Q_small_eps():
    # 4 sigma per (k, |eps|): 168 cases of orders k+2..40
    rng = np.random.default_rng(30)
    worst = 0.0
    with mpmath.workdps(60):
        for k in range(1, 7):
            for radius in (1e-3, 1e-6, 1e-9, 1e-12, 1e-20, 1e-30, 0.0):
                for _ in range(4):
                    c = _decaying(rng, int(rng.integers(k + 2, 41)), 0.6)
                    eps = radius * np.exp(2j * np.pi * rng.random())
                    got = lagrange_Q(TruncatedSeries(c), k, eps)
                    exact = _mp_interpolant(c, k, eps)
                    err = max(abs(mpmath.mpc(complex(g)) - e) for g, e in zip(got, exact))
                    worst = max(worst, float(err))
    assert worst < LAGRANGE_BOUND


def test_reversion_order_80():
    # Lagrange inversion: for f = x s(x), [x^n] f^{-1} = [w^{n-1}] s(w)^{-n} / n,
    # at the degrees 1..10 and five up to 80 as at order 160; every degree
    # is checked against the Horner residual in test_series.py
    order = 80
    degrees = [*range(1, 11), 20, 40, 60, 79, 80]
    rng = np.random.default_rng(80)
    with mpmath.workdps(30):
        for _ in range(2):
            s = _decaying_unit(rng, order - 1, np.exp(2j * np.pi * rng.random()))
            got = TruncatedSeries(np.concatenate([[0.0], s])).reversion().coefficients
            exact = _lagrange_reversion(_mp(s), degrees)
            assert _worst_error(got[degrees], exact) < REVERSION_BOUND


def test_compose_order_80_slow_decay():
    order = 80
    rng = np.random.default_rng(81)
    outer = _decaying(rng, order, 0.9)
    inner = _decaying(rng, order, 0.7)
    inner[0] = 0.0
    got = TruncatedSeries(outer).compose(TruncatedSeries(inner)).coefficients
    with mpmath.workdps(30):
        exact = _mp_compose(_mp(outer), _mp(inner))
        err = [float(abs(mpmath.mpc(complex(g)) - e)) for g, e in zip(got, exact)]
    modulus = horner_compose(np.abs(outer), np.abs(inner)).real
    assert np.all(np.array(err) <= COMPOSE_BOUND * modulus)


def test_reversion_order_160_slow_decay():
    # the degrees 1..10 and five up to 160: the power recurrence costs n^2/2
    # terms at degree n, so all 160 degrees would take seconds
    order = 160
    degrees = [*range(1, 11), 40, 80, 120, 159, 160]
    rng = np.random.default_rng(160)
    with mpmath.workdps(40):
        for _ in range(2):
            s = _decaying_unit(rng, order - 1, np.exp(2j * np.pi * rng.random()), 0.7)
            got = TruncatedSeries(np.concatenate([[0.0], s])).reversion().coefficients
            exact = _lagrange_reversion(_mp(s), degrees)
            assert _worst_error(got[degrees], exact, floor=0) < SLOW_DECAY_BOUND


def _mp_canonical_maps(sigma, k, order, degrees):
    """The maps of ``canonicalize`` for lambda = (k+1) delta^k sigma: a h at
    ``degrees``, h the inverse of l(delta) = delta A(delta^{k+1}) by Lagrange
    inversion, and l(delta/a) at every degree.  A is the k-th root of the
    class a_0 of sigma(a delta) a^k, padded with zeros past the data."""
    a = mpmath.root(1 / sigma[0], k)
    sigma1 = [c * a ** (j + k) for j, c in enumerate(sigma)] + [mpmath.mpc(0)] * k
    m = (order - 1) // (k + 1)
    s = [mpmath.mpc(0)] * order  # s(delta) = A(delta^{k+1}), so l = delta s
    s[:: k + 1] = _mp_power(sigma1[:: k + 1], mpmath.mpf(1) / k, m)
    h = [a * c for c in _lagrange_reversion(s, degrees)]
    h_inverse = [c / a ** (d + 1) for d, c in enumerate(s)]
    return h, h_inverse


@pytest.mark.parametrize("order", [80, 160])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_canonicalize(order, k):
    # h has terms only at the degrees 1 + i(k+1); i = 0..5 and four up to
    # the last, since Lagrange inversion costs n^2/2 terms at degree n
    m = (order - 1) // (k + 1)
    steps = sorted({*range(6), m // 4, m // 2, 3 * m // 4, m - 1, m})
    degrees = [1 + i * (k + 1) for i in steps]
    rng = np.random.default_rng(1000 + 10 * order + k)
    sigma = _decaying_unit(rng, order - k, np.exp(2j * np.pi * rng.random()), 0.7)
    lam = np.concatenate([np.zeros(k), (k + 1) * sigma])
    can = canonicalize(EigenvalueFunction(k, TruncatedSeries(lam)))
    with mpmath.workdps(30):
        h, h_inverse = _mp_canonical_maps(_mp(sigma), k, order, degrees)
        assert _worst_error(can.h.coefficients[degrees], h, floor=0) < CANONICALIZE_BOUND
        got = can.h_inverse.coefficients[1 :: k + 1]
        assert _worst_error(got, h_inverse[:: k + 1], floor=0) < CANONICALIZE_BOUND

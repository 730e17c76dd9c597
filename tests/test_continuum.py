"""T2.9 against its continuum closed form on L^2(R).

The Mehler kernel k(x, y) = exp(-pi (a x^2 + a y^2 - 2 b x y)), a > b > 0, is
sampled at step h = n^(-1/2) on centred representatives of Z_n, periodized,
as K[i, j] = h k(x_i, x_j), the convention of `periodized_gaussian`.  The
singular values of K then tend to those of the integral operator, and the
discrete (2, 2, p, p) norm of K, times n^(1/p - 1/2), to the continuum mixed
modulation norm; so ratio * n^(1/p - 1/2) tends to the ratio of the two
closed forms below, spectrally fast in n.
"""

import math

import numpy as np
import pytest

from gaborlab.mixednorm import ExponentVector, Permutation, mixed_modulation_norm
from gaborlab.operators import OperatorMatrix
from gaborlab.schatten import schatten_norm
from gaborlab.signals import periodized_gaussian

MEHLER_A, MEHLER_B = 1.0, 0.6
PERM = (1, 3, 2, 4)


def mehler_kernel(n):
    """h k(x_i, x_j) summed over the periods n h of both variables."""
    h = n ** -0.5
    t = (np.arange(n) + n // 2) % n - n // 2
    x = h * (t[:, None] + n * np.arange(-2, 3)[None, :])  # (point, period)
    xs, ys = x[:, None, :, None], x[None, :, None, :]
    k = np.exp(-np.pi * (MEHLER_A * xs ** 2 + MEHLER_A * ys ** 2 - 2 * MEHLER_B * xs * ys))
    return h * k.sum(axis=(2, 3))


def continuum_schatten(p):
    """Mehler: eigenvalues lambda_0 q^j, lambda_0 = sqrt(pi / (A + G)), q = B / (A + G),
    with A = pi a, B = pi b, G = sqrt(A^2 - B^2); so ||K||_(S_p) = lambda_0 (1 - q^p)^(-1/p)."""
    big_a, big_b = math.pi * MEHLER_A, math.pi * MEHLER_B
    g = math.sqrt(big_a ** 2 - big_b ** 2)
    lam0, q = math.sqrt(math.pi / (big_a + g)), big_b / (big_a + g)
    return lam0 * (1 - q ** p) ** (-1 / p)


def continuum_mixed(exps):
    """|V_Phi k| = C exp(-w.Qw / 2) on w = (k_1, k_2, l_1, l_2) for the unit Gaussian
    window Phi, with M = [[a, -b], [-b, a]] + I, C = sqrt(2) det(M)^(-1/2) and
    Q = 2 pi diag(I - M^-1, M^-1).  The level over axis j multiplies the norm by
    (2 pi / (p_j Q_jj))^(1 / (2 p_j)) and leaves the Schur complement of Q_jj."""
    m = np.array([[MEHLER_A, -MEHLER_B], [-MEHLER_B, MEHLER_A]]) + np.eye(2)
    m_inv = np.linalg.inv(m)
    zero = np.zeros((2, 2))
    q = 2 * np.pi * np.block([[np.eye(2) - m_inv, zero], [zero, m_inv]])
    norm = math.sqrt(2) / math.sqrt(np.linalg.det(m))
    axes = [1, 2, 3, 4]
    for axis, p_j in zip(PERM, exps, strict=True):
        j = axes.index(axis)
        norm *= (2 * math.pi / (p_j * q[j, j])) ** (1 / (2 * p_j))
        rest = [i for i in range(len(axes)) if i != j]
        q = q[np.ix_(rest, rest)] - np.outer(q[rest, j], q[j, rest]) / q[j, j]
        del axes[j]
    return norm


def discrete_ratio(n, p):
    kernel = mehler_kernel(n)
    mixed = mixed_modulation_norm(kernel, periodized_gaussian(n), Permutation(PERM),
                                  ExponentVector((2.0, 2.0, p, p)))
    return schatten_norm(OperatorMatrix(kernel), p) / mixed


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_t29_ratio_converges_to_the_closed_form(p):
    n = 128
    want = continuum_schatten(p) / continuum_mixed((2.0, 2.0, p, p))
    got = discrete_ratio(n, p) * n ** (1 / p - 0.5)
    assert abs(got / want - 1) <= 1e-12, (got, want)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_t29_ratio_is_one_at_p_two(n):
    # The all-2 norm is the l^2 norm of K (Moyal), which is its S^2 norm; the
    # continuum forms agree.  The norm takes a transform all the same: Moyal
    # collapses the variable of levels 1 and 2, and the other one is transformed.
    assert continuum_schatten(2.0) / continuum_mixed((2.0,) * 4) == pytest.approx(1, abs=1e-12)
    assert discrete_ratio(n, 2.0) == pytest.approx(1, abs=1e-12)

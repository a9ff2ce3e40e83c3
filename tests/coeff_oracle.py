"""The coefficient tables by their defining relations, as the oracle of
`twist.beta_coeffs`.

The package builds beta'_m = beta_m [m]! and alpha'_m = alpha_m [m]! by
three-term recursions and divides each by [m]! once.  Here the betas come
from the defining recursion, which divides by [a+1] at every step,

    beta_(a+1) = (beta_a beta_1 + beta_(a-1) (q^-1 - 1) q^((1-a)/2)) / [a+1],

and the alphas from the convolution that inverts zhat,

    alpha_a = -sum_(m=1..a) beta_m alpha_(a-m) q^(-m(a-m)/2),  alpha_0 = 1.

Multiplying the convolution by [a]! gives its primed form, a sum over
Gaussian binomials with no division, which `alpha_primes` uses.
"""

from fractions import Fraction

from qweyl.qring import ONE, ZERO, as_elem, q_binomial, q_factorial, q_int, q_power
from qweyl.twist import CoeffTable


def betas(n_max, beta1):
    """beta_0 .. beta_n_max by the defining recursion."""
    beta1 = as_elem(beta1)
    out = [ONE, beta1][:n_max + 1]
    qm1 = q_power(-1) - ONE
    for a in range(1, n_max):
        out.append((out[a] * beta1 + out[a - 1] * qm1 * q_power(Fraction(1 - a, 2)))
                   / q_int(a + 1))
    return out


def alpha_primes(beta_primes):
    """alpha'_0 .. alpha'_n from beta'_0 .. beta'_n by the primed convolution
    alpha'_a = -sum_(m=1..a) [a over m] beta'_m alpha'_(a-m) q^(-m(a-m)/2)."""
    out = [ONE]
    for a in range(1, len(beta_primes)):
        out.append(-sum((q_binomial(a, m) * beta_primes[m] * out[a - m]
                         * q_power(Fraction(-m * (a - m), 2))
                         for m in range(1, a + 1)), ZERO))
    return out


def coeff_table(n_max, beta1):
    """The `CoeffTable` of `twist.beta_coeffs(n_max, beta1)`, built from the
    defining recursion and the unprimed convolution."""
    bs = betas(n_max, beta1)
    alphas = [ONE]
    for a in range(1, n_max + 1):
        alphas.append(-sum((bs[m] * alphas[a - m] * q_power(Fraction(-m * (a - m), 2))
                            for m in range(1, a + 1)), ZERO))
    return CoeffTable(betas=tuple(bs),
                      beta_primes=tuple(b * q_factorial(m) for m, b in enumerate(bs)),
                      alphas=tuple(alphas))

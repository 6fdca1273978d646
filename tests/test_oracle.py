"""r(t) against an exact-arithmetic oracle.

The other physics tests check identities to fixed tolerances, and the
golden digests say only whether bits moved.  Here each value of
``decoherence_trace`` is compared with the product

    r*(t) = prod_k (a_k e^{+i g_k t} + b_k e^{-i g_k t})

evaluated in 200-bit arithmetic (mpmath), taking the float g_k, t,
a_k = |alpha_k|^2 and b_k = |beta_k|^2 as exact inputs.  Each factor f_k
is formed from a phase g_k t, whose rounding and that of its cosine and
sine cost about (1 + |g_k t|) u relative to |f_k|, and N products add
about u each, so the error is bounded by

    |r - r*| <= 2 u |r*| sum_k (1 + |g_k t|) / |f_k(t)|,   u = 2^-53.

The 1 / |f_k| term is needed: near-zero factors, such as cos(g t) near
g t = pi / 2, lose relative accuracy that no per-spin constant covers.
"""

import mpmath
import numpy as np
import pytest

import spinbath as sb

U = 2.0**-53

#: A Gaussian-window stretch and late times up to 10^6.
TIMES = np.concatenate([np.linspace(0.0, 3.0, 11), np.geomspace(10.0, 1e6, 10)])

DISTRIBUTIONS = ["fixed(0.7)", "gaussian(0.3, 0.5)", "lorentzian(0.4, 0.2)", "uniform(0.5, 2)"]
RULES = ["equal", "fixed(0.8)", "random"]


def exact_factor_product(g, up, down, t: float) -> tuple[mpmath.mpc, mpmath.mpf]:
    """r*(t) and sum_k (1 + |g_k t|) / |f_k(t)|, both at 200 bits."""
    with mpmath.workprec(200):
        r = mpmath.mpc(1)
        condition = mpmath.mpf(0)
        for g_k, a_k, b_k in zip(g.tolist(), up.tolist(), down.tolist()):
            phase = mpmath.mpf(g_k) * mpmath.mpf(t)
            f = mpmath.mpf(a_k) * mpmath.expj(phase) + mpmath.mpf(b_k) * mpmath.expj(-phase)
            r *= f
            condition += (1 + abs(phase)) / abs(f)  # f != 0: g_k t is rational
        return r, condition


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_trace_within_rounding_bound_of_exact_product(dist, rule):
    spec = sb.EnsembleSpec(
        sb.CouplingDistribution.parse(dist), sb.AmplitudeRule.parse(rule), 40, 1, 7
    )
    couplings, amps = sb.realization_model(spec, 0)
    trace = sb.decoherence_trace(couplings, amps, TIMES)
    # r(0) is 1 by contract, while the product of the float weights is
    # (a_k + b_k)^N, which is 1 only up to rounding.
    assert trace.values[0] == 1.0
    for t, value in zip(TIMES[1:].tolist(), trace.values[1:].tolist()):
        exact, condition = exact_factor_product(
            couplings.couplings, amps.alpha_sq, amps.beta_sq, t
        )
        with mpmath.workprec(200):
            error = abs(mpmath.mpc(value) - exact)
            bound = 2 * U * abs(exact) * condition
        assert error <= bound, f"t = {t!r}: error {float(error):.3g} > bound {float(bound):.3g}"

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

The walk spectrum, its characteristic function and the long-time
average get the same treatment, with gamma_n = n u / (1 - n u), the
bound on n roundings in sequence:

- ``enumerate_walks`` forms each energy as a sum of N terms +-g_k taken
  in k order from 0.  The first addition is exact and each later one
  errs by at most u times the partial sum, whose modulus is at most
  sum_k |g_k|, so |E - E*| <= 2 gamma_{N-1} sum_k |g_k|.
- Each weight is a product of N factors a_k or b_k taken in k order
  from 1: N - 1 roundings, so |p - p*| <= 2 gamma_{N-1} p*.
- ``characteristic_function`` sums x_W = p_W e^{i theta_W}, with
  theta_W = E_W t rounded, over the 2^N walks; multiplied out, the N
  factors of r*(t) are that sum taken exactly.  To first order in u the
  phase errs by |t| |E_W - E*_W| + u |E_W t| <= (gamma_{N-1} + u) |t|
  sum_k |g_k| (the energy bound above, without its factor 2); cos and sin
  err by an ulp, at most u each, and the weight and the product
  p_W e^{i theta_W} add gamma_{N-1} + u relative, so |x_W - x*_W| <=
  p*_W ((gamma_{N-1} + u) |t| sum_k |g_k| + gamma_{N-1} + 3u), and the
  p*_W sum to 1.  ``np.sum`` adds the terms pairwise: blocks of 64 go
  through four interleaved accumulators (15 additions, then 2 to join
  them) and each halving above adds one, so no term meets more than
  N + 11 additions, which add gamma_{N+11} sum_W |x_W| to each of the
  real and imaginary parts.  With c = 2 for the higher orders,
  |r - r*| <= 2 ((gamma_{N-1} + u) |t| sum_k |g_k| + gamma_{N-1} + 3u
  + sqrt(2) gamma_{N+11}).
- ``long_time_average_sq`` forms each factor (1 + (a_k - b_k)^2) / 2
  with three roundings.  The two in the square reach the factor
  scaled by s / (1 + s) <= 1/2, where s = (a_k - b_k)^2 <= 1, so each
  factor errs by at most gamma_3 relative.  The product adds N - 1
  roundings, so |L - L*| <= 2 gamma_{4N-1} L*.
"""

import math

import mpmath
import numpy as np
import pytest

import spinbath as sb
from helpers import closed_form_ensemble_mean

U = 2.0**-53

#: A Gaussian-window stretch and late times up to 10^6.
TIMES = np.concatenate([np.linspace(0.0, 3.0, 11), np.geomspace(10.0, 1e6, 10)])

DISTRIBUTIONS = ["fixed(0.7)", "gaussian(0.3, 0.5)", "lorentzian(0.4, 0.2)", "uniform(0.5, 2)"]
RULES = ["equal", "fixed(0.8)", "random"]


def gamma(n: int) -> float:
    return n * U / (1 - n * U)


def realization(dist: str, rule: str, n: int):
    spec = sb.EnsembleSpec(
        sb.CouplingDistribution.parse(dist), sb.AmplitudeRule.parse(rule), n, 1, 7
    )
    return sb.realization_model(spec, 0)


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


def checked_trace_times(dist: str, rule: str, n: int) -> int:
    """Check r(t) against the rounding bound at each nonzero time of TIMES
    whose exact |r| is normal; return how many times were checked.

    Below 2^-1022 the bound does not hold: a product that falls into the
    subnormals keeps only a few bits, and can stall at the smallest one."""
    couplings, amps = realization(dist, rule, n)
    trace = sb.decoherence_trace(couplings, amps, TIMES)
    # r(0) is 1 by contract, while the product of the float weights is
    # (a_k + b_k)^N, which is 1 only up to rounding.
    assert trace.values[0] == 1.0
    checked = 0
    for t, value in zip(TIMES[1:].tolist(), trace.values[1:].tolist()):
        exact, condition = exact_factor_product(
            couplings.couplings, amps.alpha_sq, amps.beta_sq, t
        )
        with mpmath.workprec(200):
            if abs(exact) < mpmath.ldexp(1, -1022):
                continue
            error = abs(mpmath.mpc(value) - exact)
            bound = 2 * U * abs(exact) * condition
        assert error <= bound, f"t = {t!r}: error {float(error):.3g} > bound {float(bound):.3g}"
        checked += 1
    return checked


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_trace_within_rounding_bound_of_exact_product(dist, rule):
    assert checked_trace_times(dist, rule, 40) == TIMES.size - 1


@pytest.mark.slow
@pytest.mark.parametrize(
    "dist, rule", [("fixed(0.7)", "fixed(0.8)"), ("lorentzian(0.4, 0.2)", "random")]
)
def test_trace_within_rounding_bound_of_exact_product_at_n_2000(dist, rule):
    # With seed 7, 14 and 18 of the 20 times keep a normal |r|.
    assert checked_trace_times(dist, rule, 2000) >= 14


def exact_walks(g, up, down) -> tuple[list, list]:
    """Walk energies and weights at 200 bits, in bitmask order: bit k set
    takes -g_k with weight b_k, clear takes +g_k with weight a_k."""
    energies, weights = [mpmath.mpf(0)], [mpmath.mpf(1)]
    for g_k, a_k, b_k in zip(*(map(mpmath.mpf, x.tolist()) for x in (g, up, down))):
        energies = [e + g_k for e in energies] + [e - g_k for e in energies]
        weights = [w * a_k for w in weights] + [w * b_k for w in weights]
    return energies, weights


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_walks_within_rounding_bound_of_exact_sums_and_products(dist, rule):
    couplings, amps = realization(dist, rule, 12)
    spectrum = sb.enumerate_walks(couplings, amps)
    g = couplings.couplings
    with mpmath.workprec(200):
        energies, weights = exact_walks(g, amps.alpha_sq, amps.beta_sq)
        energy_bound = mpmath.mpf(2 * gamma(g.size - 1) * float(np.sum(np.abs(g))))
        for m, (e, e_exact) in enumerate(zip(spectrum.energies.tolist(), energies)):
            assert abs(e - e_exact) <= energy_bound, f"walk {m}: energy {e!r}"
        weight_bound = mpmath.mpf(2 * gamma(g.size - 1))
        for m, (p, p_exact) in enumerate(zip(spectrum.weights.tolist(), weights)):
            assert abs(p - p_exact) <= weight_bound * p_exact, f"walk {m}: weight {p!r}"


#: Nonzero times, none of them a float32 value.
PHASE_SUM_TIMES = [0.37, 1.3, 5.1, 41.7]


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_characteristic_function_within_rounding_bound_of_exact_product(dist, rule):
    couplings, amps = realization(dist, rule, 12)
    spectrum = sb.enumerate_walks(couplings, amps)
    g, n = couplings.couplings, couplings.n
    for t in PHASE_SUM_TIMES:
        value = sb.characteristic_function(spectrum, t)
        exact, _ = exact_factor_product(g, amps.alpha_sq, amps.beta_sq, t)
        phase = (gamma(n - 1) + U) * abs(t) * float(np.sum(np.abs(g)))
        bound = 2 * (phase + gamma(n - 1) + 3 * U + 2**0.5 * gamma(n + 11))
        with mpmath.workprec(200):
            error = abs(mpmath.mpc(value) - exact)
        assert error <= bound, f"t = {t!r}: error {float(error):.3g} > bound {bound:.3g}"


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_long_time_average_within_rounding_bound_of_exact_product(dist, rule):
    _, amps = realization(dist, rule, 200)
    with mpmath.workprec(200):
        exact = mpmath.mpf(1)
        for a_k, b_k in zip(amps.alpha_sq.tolist(), amps.beta_sq.tolist()):
            exact *= (1 + (mpmath.mpf(a_k) - b_k) ** 2) / 2
        error = abs(sb.long_time_average_sq(amps) - exact)
        assert error <= 2 * gamma(4 * amps.n - 1) * exact


def exact_coupling_characteristic(dist: sb.CouplingDistribution, t: float) -> mpmath.mpc:
    """phi*(t) = E e^{i g t} at the working precision, from the float
    parameters and t taken as exact."""
    t = mpmath.mpf(t)
    p = [mpmath.mpf(x) for x in dist.params]
    if dist.kind == "fixed":
        return mpmath.expj(p[0] * t)
    if dist.kind == "gaussian":
        return mpmath.exp(mpmath.mpc(-((p[1] * t) ** 2) / 2, p[0] * t))
    if dist.kind == "lorentzian":
        return mpmath.exp(mpmath.mpc(-p[1] * abs(t), p[0] * t))
    half_sum, half_width = (p[0] + p[1]) / 2, (p[1] - p[0]) / 2
    sinc = mpmath.sin(half_width * t) / (half_width * t) if t else mpmath.mpf(1)
    return mpmath.expj(half_sum * t) * sinc


def phase_size(dist: sb.CouplingDistribution, t: float) -> float:
    """The magnitude a(t) of the rounded arguments of phi's exponential."""
    p = dist.params
    if dist.kind == "fixed":
        return abs(p[0] * t)
    if dist.kind == "gaussian":
        return abs(p[0] * t) + 0.5 * (p[1] * t) ** 2
    if dist.kind == "lorentzian":
        return abs(p[0] * t) + p[1] * abs(t)
    return abs(0.5 * (p[0] + p[1]) * t)


#: Sizes below 100, where numpy raises a complex number to an integer
#: power by repeated squaring; the ensemble tests use N = 6 and 20.
ENSEMBLE_SIZES = [1, 6, 24, 99]


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_closed_form_ensemble_mean_within_rounding_bound_of_exact_power(dist, rule):
    """``helpers.closed_form_ensemble_mean`` against (w phi*(t) + (1 - w)
    phi*(-t))^N at 200 bits.

    phi rounds the arguments of its exponential, of total size a(t) (see
    ``phase_size``), each to within u relative: 2u for the uniform phase
    (lo + hi) t / 2, 3u for the Gaussian exponent (sigma t)^2 / 2.  The
    exponential, its cosine and sine and the uniform law's sinc add at
    most 13u: np.sinc's argument errs by 4u relative (np.pi cancels),
    which moves sin(x) / x by at most 4u |cos x - sin(x) / x| <= 8u.  So
    |phi - phi*| <= u (3 a + 13), as |phi*| <= 1.  The weights 1 - w and
    the two products and the sum add 3u, so the inner z errs by at most
    u (3 a + 16).  Repeated squaring reaches z^N through products that
    each err by at most sqrt(5) u relative, and the error of the j-th
    squaring is raised to the power N >> j, so the power adds at most
    2 sqrt(5) N u relative.  A product that underflows errs instead by
    up to 2^-1075 absolute in each of its two real products per
    component; at most 2 log2 N complex products, the two in z and phi's
    exponential can do so, and a later product by a factor of modulus at
    most 1 (or the square of a value that underflowed) does not grow what
    they lost.  To first order, with c = 2 for the rest,

        |r - r*| <= 2 N u |z*|^(N-1) (3 a + 16 + 2 sqrt(5) |z*|)
                    + 2 sqrt(2) (2 log2 N + 3) 2^-1074.
    """
    dist, rule = sb.CouplingDistribution.parse(dist), sb.AmplitudeRule.parse(rule)
    w = rule.up_weight if rule.kind == "fixed" else 0.5
    for n in ENSEMBLE_SIZES:
        values = closed_form_ensemble_mean(dist, rule, n, TIMES).tolist()
        for t, value in zip(TIMES.tolist(), values):
            with mpmath.workprec(200):
                z = w * exact_coupling_characteristic(dist, t) + (
                    1 - mpmath.mpf(w)
                ) * exact_coupling_characteristic(dist, -t)
                error = abs(mpmath.mpc(value) - z**n)
                slack = 3 * phase_size(dist, t) + 16 + 2 * 5**0.5 * abs(z)
                underflow = 2 * 2**0.5 * (2 * math.log2(n) + 3) * mpmath.mpf(2) ** -1074
                bound = 2 * n * U * abs(z) ** (n - 1) * slack + underflow
            assert error <= bound, f"N = {n}, t = {t!r}: error {float(error):.3g} > bound {float(bound):.3g}"

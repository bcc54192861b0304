import json
import math
import pathlib

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import dawsn

from qlow.analytic import (
    DISTRIBUTIONS,
    LandauZener,
    distribution_qaoa,
    draw_fields,
    landau_zener,
    lz_numeric_success,
    lz_overlap_quadrature,
    optimal_gamma,
    single_spin_overlap,
)
from qlow.errors import ConfigError

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])

ANGLE_GRID = [(-1.04, 0.785), (0.3, 0.2), (-0.71, 1.1), (1.3, -0.4)]


def two_level_round(alpha, gamma, beta):
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    psi = expm(-1j * beta * X) @ expm(-1j * gamma * alpha * Z) @ plus
    ground = 1 if alpha > 0 else 0
    return float(abs(psi[ground]) ** 2)


@given(
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=80, deadline=None)
def test_single_spin_overlap_matches_two_level_simulation(mag, gamma, beta, sign):
    alpha = sign * mag
    assert single_spin_overlap(alpha, gamma, beta) == pytest.approx(
        two_level_round(alpha, gamma, beta), abs=1e-12
    )


def mean_energy_quadrature(dist, gamma, beta):
    """Per-spin <f> = E[alpha sin(2 beta) sin(2 alpha gamma)] by direct
    integration; independent of the closed forms under test."""
    f = lambda a: a * math.sin(2 * beta) * math.sin(2 * a * gamma)
    if dist == "binary":
        return 0.5 * (f(1.0) + f(-1.0))
    if dist == "uniform":
        val, _ = scipy.integrate.quad(f, -1, 1, epsabs=1e-13, epsrel=1e-13)
        return 0.5 * val
    val, _ = scipy.integrate.quad(
        lambda a: f(a) * math.exp(-a * a) / math.sqrt(math.pi),
        -8,
        8,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("gamma,beta", ANGLE_GRID)
def test_mean_energy_closed_form_matches_quadrature(dist, gamma, beta):
    got = distribution_qaoa(dist, gamma, beta).c_m
    assert got == pytest.approx(mean_energy_quadrature(dist, gamma, beta), abs=1e-10)


def test_uniform_mean_energy_accurate_on_both_branch_sides():
    # 9e-6 takes the Taylor branch, 1.1e-5 the exact formula; both must track
    # the quadrature oracle through the switch
    for g in (9e-6, 1.1e-5):
        got = distribution_qaoa("uniform", g, 0.7).c_m
        assert got == pytest.approx(mean_energy_quadrature("uniform", g, 0.7), abs=1e-9)
    assert distribution_qaoa("uniform", 0.0, 0.7).c_m == 0.0


def overlap_quadrature(dist, gamma, beta):
    if dist == "binary":
        return single_spin_overlap(1.0, gamma, beta)
    if dist == "uniform":
        val, _ = scipy.integrate.quad(
            lambda a: single_spin_overlap(a, gamma, beta),
            -1,
            1,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        return 0.5 * val
    # gaussian: E[sin 2|alpha| gamma] = (2/sqrt(pi)) dawsn(gamma)
    return 0.5 * (1 - math.sin(2 * beta) * 2.0 / math.sqrt(math.pi) * dawsn(gamma))


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("gamma,beta", ANGLE_GRID)
def test_overlap_matches_independent_route(dist, gamma, beta):
    got = distribution_qaoa(dist, gamma, beta).overlap
    assert got == pytest.approx(overlap_quadrature(dist, gamma, beta), abs=1e-8)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_ratio_definition_and_zero_gamma_baseline(dist):
    s = distribution_qaoa(dist, 0.0, 0.9)
    assert s.c_m == pytest.approx(0.0, abs=1e-12)
    assert s.ratio == pytest.approx(0.5, abs=1e-12)
    s2 = distribution_qaoa(dist, -0.8, 0.6)
    f_max = -s2.f_star
    assert s2.ratio == pytest.approx(
        (f_max - s2.c_m) / (f_max - s2.f_star), abs=1e-12
    )


def test_distribution_validation():
    with pytest.raises(ConfigError):
        distribution_qaoa("poisson", 0.1, 0.1)
    with pytest.raises(ConfigError):
        optimal_gamma("poisson")


def test_optimal_gamma_closed_form_pins():
    assert optimal_gamma("binary") == pytest.approx(-math.pi / 4, abs=1e-8)
    assert optimal_gamma("gaussian") == pytest.approx(-1 / math.sqrt(2), abs=1e-8)
    g_u = optimal_gamma("uniform")
    assert g_u == pytest.approx(-1.04, abs=0.01)
    # stationarity and local minimality at the reported uniform optimum
    h = 1e-5
    c = lambda g: distribution_qaoa("uniform", g, math.pi / 4).c_m
    assert abs((c(g_u + h) - c(g_u - h)) / (2 * h)) < 1e-5
    assert c(g_u) < c(g_u + 0.05) and c(g_u) < c(g_u - 0.05)


def test_optimal_gamma_mirrors_its_bracket_when_sin_2beta_is_negative():
    # c_m is sin 2beta times an odd function of gamma: at beta = 3pi/4 the
    # best gamma is the beta = pi/4 one mirrored, with the same energy
    for dist in DISTRIBUTIONS:
        g = optimal_gamma(dist, 3 * math.pi / 4)
        g_ref = optimal_gamma(dist, math.pi / 4)
        assert g == pytest.approx(-g_ref, abs=1e-8)
        assert distribution_qaoa(dist, g, 3 * math.pi / 4).c_m == pytest.approx(
            distribution_qaoa(dist, g_ref, math.pi / 4).c_m, abs=1e-12
        )


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_optimal_gamma_rejects_a_beta_where_every_gamma_ties(dist):
    # sin 2beta = 0 zeroes c_m at every gamma
    with pytest.raises(ConfigError, match="sin 2beta"):
        optimal_gamma(dist, 0.0)


PIN_POINTS = [(0.0, 0.7), (1e-9, 0.7), (-5e-6, 0.3), (2e-5, 1.1), (-1.04, 0.785), (0.3, 0.2), (1.3, -0.4)]
PIN_BETAS = [math.pi / 4, 0.3]
PIN_RATES = [0.3, 1.0, 7.5]


def test_closed_forms_match_recorded_bits():
    """Bit-for-bit pins of the field-law closed forms, the optimum, the field
    draw and the sweep quadrature. The points reach both small-gamma branches
    of the uniform law (|gamma| < 1e-8 and < 1e-5)."""
    pins = json.loads((pathlib.Path(__file__).parent / "data" / "analytic_pins.json").read_text())
    for dist in DISTRIBUTIONS:
        pin = pins[dist]
        for (gamma, beta), want in zip(PIN_POINTS, pin["distribution_qaoa"], strict=True):
            s = distribution_qaoa(dist, gamma, beta)
            assert [s.c_m.hex(), s.overlap.hex(), s.f_star.hex(), s.ratio.hex()] == want
        assert [optimal_gamma(dist, b).hex() for b in PIN_BETAS] == pin["optimal_gamma"]
        fields = draw_fields(dist, np.random.default_rng(3), (4, 5))
        want = np.array([float.fromhex(h) for h in pin["draw_fields"]]).reshape(4, 5)
        assert np.array_equal(fields, want)
    got = [lz_overlap_quadrature(r).hex() for r in PIN_RATES]
    assert got == pins["lz_overlap_quadrature"]


def test_lz_overlap_closed_form_matches_quadrature():
    for rate in (0.3, 0.5, 1.0, 2.0, 7.5):
        assert landau_zener(rate).o_lz == pytest.approx(
            lz_overlap_quadrature(rate), abs=1e-10
        )


def test_lz_ratio_consistent_with_energy_average():
    # r = (f_max - a)/(f_max - f_star) with f_star = -E|alpha| = -1/sqrt(pi)
    f_star = -1 / math.sqrt(math.pi)
    for rate in (0.25, 1.0, 4.0):
        lz = landau_zener(rate)
        assert lz.r_lz == pytest.approx(
            (-f_star - lz.a_lz) / (-2 * f_star), abs=1e-12
        )


def test_lz_limits_and_monotonicity():
    rates = np.linspace(0.05, 30, 40)
    o = [landau_zener(r).o_lz for r in rates]
    r = [landau_zener(rr).r_lz for rr in rates]
    assert all(b < a for a, b in zip(o, o[1:]))
    assert all(b < a for a, b in zip(r, r[1:]))
    assert landau_zener(1e-9).o_lz == pytest.approx(1.0, abs=1e-4)
    assert landau_zener(1e9).r_lz == pytest.approx(0.5, abs=1e-4)
    assert landau_zener(1.0).r_lz == pytest.approx(
        (2 * math.pi + 1) / (2 * math.pi + 2), abs=1e-12
    )


def test_lz_two_level_integration_matches_formula():
    lz = landau_zener(1.0)
    got = lz_numeric_success(1.0, alpha=1.0)
    assert got == pytest.approx(lz.p_lz(1.0), abs=2e-2)


def test_lz_validation():
    with pytest.raises(ConfigError):
        landau_zener(0.0)
    with pytest.raises(ConfigError):
        lz_numeric_success(-1.0)


def test_lz_numeric_success_rejects_a_nan_rate():
    # a NaN rate passes a `<= 0` check and the sweep integration never ends
    with pytest.raises(ConfigError, match="sweep rate must be positive"):
        lz_numeric_success(float("nan"))


def test_lz_rejects_an_infinite_rate():
    # an infinite rate passes a `> 0` check, o_lz is nan, and the sweep
    # integration never ends
    with pytest.raises(ConfigError, match="sweep rate must be positive"):
        LandauZener(float("inf"))
    with pytest.raises(ConfigError, match="sweep rate must be positive"):
        lz_numeric_success(float("inf"))

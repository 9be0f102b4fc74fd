import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomblab.specfun import (
    EvalResult,
    hurwitz_zeta,
    log_gamma,
    riemann_zeta,
)


# ---------------------------------------------------------------- log-gamma

def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-13
    assert abs(log_gamma(2.0)) < 1e-13
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13


def test_log_gamma_against_stdlib():
    # math.lgamma is an independent implementation
    for x in np.concatenate([np.linspace(0.05, 5, 117), np.linspace(5, 200, 71)]):
        ref = math.lgamma(float(x))
        assert abs(log_gamma(float(x)) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_domain_error():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.2)


def test_log_gamma_recurrence_grid():
    # |lnGamma(x+1) - lnGamma(x) - ln x| <= 1e-12 on [0.5, 50]
    for x in np.linspace(0.5, 50.0, 199):
        x = float(x)
        err = abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x))
        assert err <= 1e-12 * max(1.0, abs(log_gamma(x)))


@given(st.floats(min_value=0.5, max_value=80.0))
def test_log_gamma_recurrence_property(x):
    err = abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x))
    assert err <= 1e-11 * max(1.0, abs(log_gamma(x + 1.0)))


# -------------------------------------------------------------- Hurwitz zeta

def _zeta_direct(s, a, terms=10 ** 6):
    """Independent oracle: direct summation plus integral/midpoint tail."""
    k = np.arange(terms, dtype=float)
    head = math.fsum((a + k) ** (-s))
    x = a + terms
    return head + x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)


def test_reduces_to_riemann_zeta():
    assert abs(hurwitz_zeta(2.0, 1.0) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(hurwitz_zeta(-1.0, 1.0) - (-1.0 / 12.0)) < 1e-12
    # s = 1/2 against the direct-summation oracle
    assert abs(hurwitz_zeta(0.5, 1.0) - _zeta_direct(0.5, 1.0)) < 1e-9


def test_half_argument_identity():
    # zeta(s; 1/2) = (2^s - 1) zeta(s)
    val = hurwitz_zeta(2.0, 0.5)
    assert abs(val - math.pi ** 2 / 2.0) < 1e-12
    assert abs(val - _zeta_direct(2.0, 0.5)) < 1e-10

    val_half = hurwitz_zeta(0.5, 0.5)
    ident = (math.sqrt(2.0) - 1.0) * riemann_zeta(0.5)
    assert abs(val_half - ident) < 1e-12
    assert abs(val_half - _zeta_direct(0.5, 0.5)) < 1e-9
    assert abs(val_half - (-0.60490)) < 5e-6


def test_bernoulli_polynomial_identity():
    # zeta(-1; a) + (a^2 - a + 1/6)/2 = 0
    for a in (0.25, 0.5, 0.75):
        resid = hurwitz_zeta(-1.0, a) + 0.5 * (a * a - a + 1.0 / 6.0)
        assert abs(resid) < 1e-10


def test_hurwitz_zeta_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)


@given(st.floats(min_value=-4.0, max_value=9.5).filter(lambda s: abs(s - 1.0) > 1e-3),
       st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_hurwitz_forward_recurrence(s, a):
    # zeta(s; a) - zeta(s; a+1) = a^{-s}
    lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1.0)
    scale = max(1.0, abs(hurwitz_zeta(s, a)))
    assert abs(lhs - a ** (-s)) < 1e-10 * scale


def test_eval_result_invariants():
    r = EvalResult(1.5, 1e-9)
    assert r.value == 1.5
    with pytest.raises(ValueError):
        EvalResult(math.nan, 0.0)
    with pytest.raises(ValueError):
        EvalResult(1.0, -1.0)

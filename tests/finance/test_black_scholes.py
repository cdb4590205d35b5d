"""Tests for Black-Scholes pricing, Greeks, and no-arbitrage identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FinanceError
from repro.finance import (
    call_price,
    delta,
    gamma,
    put_call_parity_gap,
    put_price,
    rho,
    theta,
    vega,
)
from repro.finance.black_scholes import ndtr, price_call_put_delta

# Haug (1998) reference: S=60, K=65, r=8%, sigma=30%, T=0.25 -> C=2.1334
HAUG = dict(S=60.0, K=65.0, r=0.08, sigma=0.30, T=0.25)


class TestReferenceValues:
    def test_haug_call(self):
        assert call_price(**HAUG) == pytest.approx(2.1334, abs=1e-4)

    def test_hull_put(self):
        # Hull: S=42, K=40, r=10%, sigma=20%, T=0.5 -> P=0.8086
        assert put_price(42.0, 40.0, 0.10, 0.20, 0.5) == pytest.approx(
            0.8086, abs=1e-4
        )

    def test_atm_call_approximation(self):
        # ATM forward approximation: C ~ 0.4 * S * sigma * sqrt(T).
        S = 100.0
        c = call_price(S, S, 0.0, 0.2, 1.0)
        assert c == pytest.approx(0.4 * S * 0.2, rel=0.01)

    def test_vectorised_broadcast(self):
        strikes = np.array([80.0, 90.0, 100.0, 110.0])
        prices = call_price(100.0, strikes, 0.05, 0.2, 1.0)
        assert prices.shape == (4,)
        # Monotone decreasing in strike.
        assert np.all(np.diff(prices) < 0)

    def test_dividend_yield_reduces_call(self):
        plain = call_price(100.0, 100.0, 0.05, 0.2, 1.0)
        divd = call_price(100.0, 100.0, 0.05, 0.2, 1.0, q=0.03)
        assert divd < plain


class TestNormalCdf:
    # Phi(x) to double precision, from a 40-digit evaluation of
    # erfc(-x/sqrt(2))/2.
    REFERENCE = [
        (-8.0, 6.220960574271784e-16),
        (-5.0, 2.866515718791939e-07),
        (-1.96, 0.024997895148220435),
        (0.0, 0.5),
        (1.96, 0.9750021048517795),
        (5.0, 0.9999997133484281),
    ]

    @pytest.mark.parametrize("x, want", REFERENCE)
    def test_reference_values(self, x, want):
        assert abs(ndtr(x) - want) <= 1e-14 * want

    def test_vectorised_matches_scalar(self):
        xs = np.array([x for x, _ in self.REFERENCE])
        got = ndtr(xs)
        assert got.shape == xs.shape
        assert list(got) == [ndtr(x) for x in xs]

    def test_tails_sum_to_one(self):
        xs = np.linspace(-12.0, 12.0, 4801)
        total = ndtr(xs) + ndtr(-xs)
        assert np.all(np.abs(total - 1.0) <= 2 * np.spacing(1.0))

    def test_monotone(self):
        values = ndtr(np.linspace(-40.0, 40.0, 80001))
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] == 0.0 and values[-1] == 1.0


class TestBatchKernel:
    """``price_call_put_delta`` against the one-at-a-time functions."""

    @staticmethod
    def _batch(seed, n=125):
        rng = np.random.default_rng(seed)
        spots = 100.0 * (1.0 + 0.5 * (rng.random(n) - 0.25))
        strikes = 100.0 * (1.0 + 0.8 * (rng.random(n) - 0.5))
        return spots, strikes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "r, sigma, T, q",
        [(0.02, 0.25, 0.5, 0.0), (0.08, 0.05, 0.02, 0.01), (0.0, 1.2, 3.0, 0.03)],
    )
    def test_agrees_with_separate_calls(self, seed, r, sigma, T, q):
        S, K = self._batch(seed)
        call, put, call_delta = price_call_put_delta(S, K, r, sigma, T, q)
        for got, want in (
            (call, call_price(S, K, r, sigma, T, q)),
            (put, put_price(S, K, r, sigma, T, q)),
            (call_delta, delta(S, K, r, sigma, T, q)),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        gap = call - put - (S * np.exp(-q * T) - K * np.exp(-r * T))
        assert np.all(np.abs(gap) <= 1e-10 * K)

    @pytest.mark.parametrize(
        "sigma, T, match", [(0.0, 1.0, "volatility"), (0.2, -1.0, "expiry")]
    )
    def test_scalar_inputs_validated(self, sigma, T, match):
        S, K = self._batch(0, n=4)
        with pytest.raises(FinanceError, match=match):
            price_call_put_delta(S, K, 0.02, sigma, T)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(S=-1.0, K=100.0, r=0.05, sigma=0.2, T=1.0),
            dict(S=100.0, K=0.0, r=0.05, sigma=0.2, T=1.0),
            dict(S=100.0, K=100.0, r=0.05, sigma=0.0, T=1.0),
            dict(S=100.0, K=100.0, r=0.05, sigma=0.2, T=0.0),
        ],
    )
    def test_bad_inputs_rejected(self, kwargs):
        with pytest.raises(FinanceError):
            call_price(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(S=np.array([1.0, -1.0]), K=100.0), "spot"),
            (dict(S=100.0, K=[90.0, 0.0]), "strike"),
            (dict(S=np.array([90.0, 110.0]), K=np.array([0.0, 1.0])), "strike"),
        ],
    )
    def test_bad_array_inputs_rejected(self, kwargs, match):
        with pytest.raises(FinanceError, match=match):
            call_price(r=0.05, sigma=0.2, T=1.0, **kwargs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FinanceError):
            delta(100.0, 100.0, 0.05, 0.2, 1.0, kind="straddle")


class TestGreeks:
    def test_delta_bounds(self):
        d_call = delta(100.0, 100.0, 0.05, 0.2, 1.0, kind="call")
        d_put = delta(100.0, 100.0, 0.05, 0.2, 1.0, kind="put")
        assert 0 < d_call < 1
        assert -1 < d_put < 0
        assert d_call - d_put == pytest.approx(1.0)  # q=0

    def test_delta_matches_finite_difference(self):
        h = 1e-4
        fd = (
            call_price(100.0 + h, 100.0, 0.05, 0.2, 1.0)
            - call_price(100.0 - h, 100.0, 0.05, 0.2, 1.0)
        ) / (2 * h)
        assert delta(100.0, 100.0, 0.05, 0.2, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_gamma_matches_finite_difference(self):
        h = 1e-3
        fd = (
            call_price(100.0 + h, 100.0, 0.05, 0.2, 1.0)
            - 2 * call_price(100.0, 100.0, 0.05, 0.2, 1.0)
            + call_price(100.0 - h, 100.0, 0.05, 0.2, 1.0)
        ) / h**2
        assert gamma(100.0, 100.0, 0.05, 0.2, 1.0) == pytest.approx(fd, abs=1e-5)

    def test_vega_matches_finite_difference(self):
        h = 1e-5
        fd = (
            call_price(100.0, 100.0, 0.05, 0.2 + h, 1.0)
            - call_price(100.0, 100.0, 0.05, 0.2 - h, 1.0)
        ) / (2 * h)
        assert vega(100.0, 100.0, 0.05, 0.2, 1.0) == pytest.approx(fd, rel=1e-5)

    def test_theta_matches_finite_difference(self):
        h = 1e-5
        # theta = -dV/dT (calendar time convention: value decays as T shrinks)
        fd = -(
            call_price(100.0, 100.0, 0.05, 0.2, 1.0 + h)
            - call_price(100.0, 100.0, 0.05, 0.2, 1.0 - h)
        ) / (2 * h)
        assert theta(100.0, 100.0, 0.05, 0.2, 1.0) == pytest.approx(fd, rel=1e-4)

    def test_rho_matches_finite_difference(self):
        h = 1e-6
        fd = (
            call_price(100.0, 100.0, 0.05 + h, 0.2, 1.0)
            - call_price(100.0, 100.0, 0.05 - h, 0.2, 1.0)
        ) / (2 * h)
        assert rho(100.0, 100.0, 0.05, 0.2, 1.0) == pytest.approx(fd, rel=1e-5)

    def test_put_rho_negative(self):
        assert rho(100.0, 100.0, 0.05, 0.2, 1.0, kind="put") < 0


class TestPropertyBased:
    @given(
        S=st.floats(min_value=1.0, max_value=500.0),
        K=st.floats(min_value=1.0, max_value=500.0),
        r=st.floats(min_value=0.0, max_value=0.15),
        sigma=st.floats(min_value=0.01, max_value=1.5),
        T=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_put_call_parity(self, S, K, r, sigma, T):
        gap = put_call_parity_gap(S, K, r, sigma, T)
        assert abs(gap) < 1e-8 * max(S, K)

    @given(
        S=st.floats(min_value=1.0, max_value=500.0),
        K=st.floats(min_value=1.0, max_value=500.0),
        r=st.floats(min_value=0.0, max_value=0.15),
        sigma=st.floats(min_value=0.01, max_value=1.5),
        T=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_arbitrage_bounds(self, S, K, r, sigma, T):
        c = float(call_price(S, K, r, sigma, T))
        disc_k = K * np.exp(-r * T)
        assert c >= max(S - disc_k, 0.0) - 1e-9 * max(S, K)
        assert c <= S + 1e-12

    @given(
        S=st.floats(min_value=10.0, max_value=200.0),
        sigma1=st.floats(min_value=0.05, max_value=0.5),
        bump=st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_price_increasing_in_vol(self, S, sigma1, bump):
        c1 = float(call_price(S, S, 0.02, sigma1, 1.0))
        c2 = float(call_price(S, S, 0.02, sigma1 + bump, 1.0))
        assert c2 > c1

"""Black-Scholes-Merton European option pricing and Greeks.

NumPy-vectorised port of the classic routines (the paper's BenchEx uses
Ødegaard's C++ finance library for per-request processing [1]).  All
functions accept scalars or arrays and broadcast.

Notation: S spot, K strike, r continuously-compounded rate, q dividend
yield, sigma volatility, T time to expiry in years.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.errors import FinanceError

ArrayLike = Union[float, np.ndarray]

_SQRT1_2 = math.sqrt(0.5)


def _lower_tail(x: np.ndarray) -> np.ndarray:
    """``N(-|x|) = 0.5 * erfc(|x| / sqrt(2))``, one libm ``erfc`` pass.

    The small tail of the standard normal at every element.  Going
    through ``erfc`` of the magnitude (Cephes' own trick in ``ndtr``)
    keeps full relative accuracy far out in the tail, where ``1 - N``
    would cancel to zero; the large tail is ``1 - small``.
    """
    z = (np.abs(x) * _SQRT1_2).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, z), float, len(z)).reshape(x.shape)


def ndtr(x: ArrayLike) -> ArrayLike:
    """Standard normal CDF, element-wise."""
    x = np.asarray(x, dtype=float)
    small = _lower_tail(x)
    return np.where(x > 0, 1.0 - small, small)[()]


def _check_positive(value: ArrayLike, what: str) -> None:
    bad = np.any(np.asarray(value) <= 0) if np.ndim(value) else value <= 0
    if bad:
        raise FinanceError(f"{what} must be positive")


def _validate(S: ArrayLike, K: ArrayLike, sigma: ArrayLike, T: ArrayLike) -> None:
    _check_positive(S, "spot price")
    _check_positive(K, "strike")
    _check_positive(sigma, "volatility")
    _check_positive(T, "time to expiry")


def _d1_d2(S, K, r, sigma, T, q):
    sqrtT = np.sqrt(T)
    d1 = (np.log(np.asarray(S) / K) + (r - q + 0.5 * sigma**2) * T) / (
        sigma * sqrtT
    )
    d2 = d1 - sigma * sqrtT
    return d1, d2


def d1_d2(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
):
    """The standard d1/d2 terms."""
    _validate(S, K, sigma, T)
    return _d1_d2(S, K, r, sigma, T, q)


def call_price(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """European call value."""
    d1, d2 = d1_d2(S, K, r, sigma, T, q)
    return S * np.exp(-q * T) * ndtr(d1) - K * np.exp(-r * T) * ndtr(d2)


def put_price(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """European put value."""
    d1, d2 = d1_d2(S, K, r, sigma, T, q)
    return K * np.exp(-r * T) * ndtr(-d2) - S * np.exp(-q * T) * ndtr(-d1)


def price_call_put_delta(
    S: np.ndarray,
    K: np.ndarray,
    r: float,
    sigma: float,
    T: float,
    q: float = 0.0,
):
    """Call value, put value, and call delta of a batch, in one pass.

    The batch kernel behind BenchEx's per-request pricing.  ``S`` and
    ``K`` are 1-D arrays its caller has already made positive (see
    :func:`~repro.finance.workload.process_request`), so only the
    scalar ``sigma`` and ``T`` are validated.  One ``erfc`` pass over
    ``|d1|, |d2|`` yields both ``N(d)`` and ``N(-d)``.

    Float-identical to calling :func:`call_price`, :func:`put_price`
    and :func:`delta` separately: :func:`ndtr` derives ``N(d)`` and
    ``N(-d)`` from the same small tail, and every product keeps the
    same left-to-right association.
    """
    _check_positive(sigma, "volatility")
    _check_positive(T, "time to expiry")
    d1, d2 = _d1_d2(S, K, r, sigma, T, q)
    n = len(d1)
    d = np.concatenate((d1, d2))
    small = _lower_tail(d)
    large = 1.0 - small
    up = d > 0
    nd = np.where(up, large, small)  # N(d1), N(d2)
    nmd = np.where(up, small, large)  # N(-d1), N(-d2)
    disc_q = np.exp(-q * T)
    S_disc = S * disc_q
    K_disc = K * np.exp(-r * T)
    call = S_disc * nd[:n] - K_disc * nd[n:]
    put = K_disc * nmd[n:] - S_disc * nmd[:n]
    call_delta = disc_q * nd[:n]
    return call, put, call_delta


def _pdf(x: ArrayLike) -> ArrayLike:
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


def delta(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
    kind: str = "call",
) -> ArrayLike:
    """dV/dS."""
    d1, _ = d1_d2(S, K, r, sigma, T, q)
    disc = np.exp(-q * T)
    if kind == "call":
        return disc * ndtr(d1)
    if kind == "put":
        return disc * (ndtr(d1) - 1.0)
    raise FinanceError(f"unknown option kind: {kind!r}")


def gamma(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """d2V/dS2 (same for calls and puts)."""
    d1, _ = d1_d2(S, K, r, sigma, T, q)
    return np.exp(-q * T) * _pdf(d1) / (S * sigma * np.sqrt(T))


def vega(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """dV/dsigma (per unit of vol, not per percentage point)."""
    d1, _ = d1_d2(S, K, r, sigma, T, q)
    return S * np.exp(-q * T) * _pdf(d1) * np.sqrt(T)


def theta(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
    kind: str = "call",
) -> ArrayLike:
    """dV/dt (calendar decay, per year)."""
    d1, d2 = d1_d2(S, K, r, sigma, T, q)
    disc_r = np.exp(-r * T)
    disc_q = np.exp(-q * T)
    common = -S * disc_q * _pdf(d1) * sigma / (2.0 * np.sqrt(T))
    if kind == "call":
        return common - r * K * disc_r * ndtr(d2) + q * S * disc_q * ndtr(d1)
    if kind == "put":
        return common + r * K * disc_r * ndtr(-d2) - q * S * disc_q * ndtr(-d1)
    raise FinanceError(f"unknown option kind: {kind!r}")


def rho(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
    kind: str = "call",
) -> ArrayLike:
    """dV/dr."""
    _, d2 = d1_d2(S, K, r, sigma, T, q)
    if kind == "call":
        return K * T * np.exp(-r * T) * ndtr(d2)
    if kind == "put":
        return -K * T * np.exp(-r * T) * ndtr(-d2)
    raise FinanceError(f"unknown option kind: {kind!r}")


def put_call_parity_gap(
    S: ArrayLike,
    K: ArrayLike,
    r: ArrayLike,
    sigma: ArrayLike,
    T: ArrayLike,
    q: ArrayLike = 0.0,
) -> ArrayLike:
    """C - P - (S e^{-qT} - K e^{-rT}); zero up to rounding if the
    implementation is arbitrage-consistent."""
    c = call_price(S, K, r, sigma, T, q)
    p = put_price(S, K, r, sigma, T, q)
    return c - p - (S * np.exp(-q * T) - K * np.exp(-r * T))

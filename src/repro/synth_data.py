"""Synthetic time-series panels for the Dangoron reproduction.

``ar1_matrix`` gives neutral independent AR(1) series for unit tests;
``uscrn_like`` gives the climate-like hourly panel that substitutes for
the paper's USCRN data (DESIGN.md § 3). Both return a dense (N, L)
matrix and are deterministic in ``seed``. Tomborg datasets live in
``repro.tomborg``.
"""
import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# The paper evaluates on the NOAA NCEI USCRN hourly-2020 station data
# ("NCEA Data Set"). The container has no network access, so
# ``uscrn_like`` synthesizes a station×variable panel with the properties
# the paper's techniques exploit and are judged on (DESIGN.md §3):
# slowly drifting cross-correlations, a realistic mix of strongly
# correlated (same variable, nearby stations) and weakly correlated
# (cross-variable) pairs, and hourly resolution with natural daily basic
# windows.

_USCRN_VARS = ("temperature", "solar", "wind", "precip")


def _ar1(g: np.random.Generator, n: int, length: int, phi: float, sigma: float) -> np.ndarray:
    """n independent AR(1) processes of the given length."""
    eps = g.normal(0.0, sigma, size=(n, length))
    out = np.empty((n, length))
    out[:, 0] = eps[:, 0] / max(np.sqrt(1 - phi * phi), 1e-9)
    for t in range(1, length):
        out[:, t] = phi * out[:, t - 1] + eps[:, t]
    return out


def ar1_matrix(
    *, n: int, length: int, phi: float = 0.9, sigma: float = 1.0, seed: int = 0
) -> np.ndarray:
    """Independent AR(1) series — a neutral dataset for unit tests."""
    return _ar1(_rng(seed), n, length, phi, sigma)


def uscrn_like(
    *,
    n_stations: int = 32,
    n_hours: int = 8760,
    n_regions: int = 4,
    seed: int = 0,
    variables: tuple[str, ...] = _USCRN_VARS,
) -> np.ndarray:
    """Climate-like hourly panel: ``n_stations × len(variables)`` series.

    Returns a dense matrix of shape (n_stations * len(variables), n_hours);
    series are ordered variable-major (all temperature series first), so
    same-variable pairs — the highly correlated ones — share a band.

    Construction: stations live on a grid and load onto ``n_regions``
    regional AR(1) weather fields with distance-decaying weights, which
    yields spatially correlated, slowly *drifting* correlations (regional
    weather comes and goes — precisely the temporal stability + slow
    drift Dangoron's jumping exploits). Variables:

    - temperature: annual + diurnal harmonics + regional AR(1) noise;
    - solar: clipped diurnal cycle modulated by regional cloudiness;
    - wind: rough AR(1) with weak regional coupling;
    - precip: bursty gamma rain driven by regional occurrence processes
      (mostly uncorrelated with temperature — these cross-variable pairs
      are what a threshold β prunes away).
    """
    g = _rng(seed)
    t = np.arange(n_hours)
    annual = np.sin(2 * np.pi * t / 8760.0)
    diurnal = np.sin(2 * np.pi * t / 24.0)

    side = int(np.ceil(np.sqrt(n_stations)))
    coords = np.array([(i % side, i // side) for i in range(n_stations)], dtype=float)
    centers = g.uniform(0, side, size=(n_regions, 2))
    d = np.linalg.norm(coords[:, None, :] - centers[None, :, :], axis=2)
    wgt = np.exp(-d / (side / 2.0))
    wgt /= wgt.sum(axis=1, keepdims=True)  # (n_stations, n_regions)

    regional_T = _ar1(g, n_regions, n_hours, phi=0.98, sigma=0.4)
    regional_cloud = _ar1(g, n_regions, n_hours, phi=0.95, sigma=0.5)
    regional_rain = _ar1(g, n_regions, n_hours, phi=0.90, sigma=1.0)
    regional_wind = _ar1(g, n_regions, n_hours, phi=0.85, sigma=0.8)

    lat = coords[:, 1:2] / max(side - 1, 1)  # 0..1 north-south factor
    out = []
    for var in variables:
        if var == "temperature":
            base = (
                10.0 * (1.0 + 0.3 * lat) * annual[None, :]
                + 4.0 * diurnal[None, :]
                + 15.0 * (1.0 - 0.5 * lat)
            )
            x = base + 3.0 * (wgt @ regional_T) + _ar1(g, n_stations, n_hours, 0.8, 0.8)
        elif var == "solar":
            clouds = 1.0 / (1.0 + np.exp(-(wgt @ regional_cloud)))
            x = np.clip(diurnal[None, :], 0, None) * (
                0.6 + 0.4 * np.clip(annual[None, :], 0, None)
            ) * (1.2 - clouds) * 800.0 + _ar1(g, n_stations, n_hours, 0.3, 10.0)
        elif var == "wind":
            x = 5.0 + 1.5 * (wgt @ regional_wind) + _ar1(g, n_stations, n_hours, 0.7, 1.2)
        elif var == "precip":
            occ = (wgt @ regional_rain) > 1.0
            amount = g.gamma(0.8, 2.0, size=(n_stations, n_hours))
            x = occ * amount + 0.01 * g.random((n_stations, n_hours))
        else:
            raise ValueError(f"unknown USCRN-like variable {var!r}")
        out.append(x)
    return np.concatenate(out, axis=0)

"""The energy-prediction pipeline and backtesting (paper §II-B, §VIII).

Features combine "deterministic weather forecasts, historical WRF time
series, historical datasets of the wind farm, and real-time data"; the
model is Kernel Ridge; evaluation is "a backtesting scenario".  The
benchmark also verifies the §VIII claim that *more frequent WRF updates*
(fresher forecasts, enabled by the accelerated WRF) reduce forecast error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.energy.kernel_ridge import KernelRidge
from repro.apps.energy.windfarm import FarmHistory, WindFarm
from repro.errors import EverestError


def build_features(history: FarmHistory, farm: WindFarm,
                   forecast_age_hours: int = 1) -> Tuple[np.ndarray,
                                                         np.ndarray]:
    """Feature matrix and target for hour-ahead power prediction.

    ``forecast_age_hours`` models the freshness of the WRF run feeding the
    features: an older run means the "forecast" column lags reality.
    """
    if forecast_age_hours < 1:
        raise EverestError("forecast age must be at least one hour")
    hours = len(history.hours)
    lag = 3  # real-time data: trailing measured values
    rows = range(lag, hours)
    stale = np.roll(history.forecast_wind_10m, forecast_age_hours - 1)
    features = np.column_stack([
        farm.wind_at_hub(stale[list(rows)]),            # forecast @ hub
        stale[list(rows)] ** 3,                          # cubic proxy
        history.measured_wind_10m[lag - 1: hours - 1],   # last measured
        history.measured_wind_10m[lag - 2: hours - 2],
        history.availability[list(rows)],
        np.sin(2 * np.pi * (history.hours[list(rows)] % 24) / 24),
        np.cos(2 * np.pi * (history.hours[list(rows)] % 24) / 24),
    ])
    target = history.power_mw[list(rows)]
    return features, target


@dataclass
class BacktestResult:
    """Error metrics of one backtest."""

    mae_mw: float
    rmse_mw: float
    baseline_mae_mw: float  # persistence
    improvement: float      # 1 - mae/baseline


def backtest(history: FarmHistory, farm: WindFarm,
             train_fraction: float = 0.7,
             forecast_age_hours: int = 1,
             model: Optional[KernelRidge] = None,
             max_train: int = 2000) -> BacktestResult:
    """Walk-forward backtest: train on the past, score the future."""
    features, target = build_features(history, farm, forecast_age_hours)
    split = int(len(target) * train_fraction)
    if split < 50 or len(target) - split < 20:
        raise EverestError("not enough history to backtest")
    train_slice = slice(max(0, split - max_train), split)
    model = model or KernelRidge(alpha=1e-2, gamma=0.3)
    model.fit(features[train_slice], target[train_slice])
    predicted = model.predict(features[split:])
    actual = target[split:]
    mae = float(np.mean(np.abs(predicted - actual)))
    rmse = float(np.sqrt(np.mean((predicted - actual)**2)))
    # Persistence baseline: tomorrow's power = the last measured power.
    persistence = np.roll(target, 1)[split:]
    baseline = float(np.mean(np.abs(persistence - actual)))
    return BacktestResult(mae, rmse, baseline,
                          1.0 - mae / baseline if baseline else 0.0)


def update_frequency_study(history: FarmHistory, farm: WindFarm,
                           ages=(1, 3, 6, 12, 24)) -> Dict[int, float]:
    """MAE as a function of WRF-update staleness (§VIII claim)."""
    return {
        age: backtest(history, farm, forecast_age_hours=age).mae_mw
        for age in ages
    }

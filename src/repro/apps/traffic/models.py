"""Traffic models: 15-minute speed profiles, GMM prediction and the CNN.

Paper §II-D: the traffic model is "(a) macroscopic parameters for each
road segment (speed, flow, intensity) for each 15-minute interval over a
weekday and (b) coefficients of the prediction model for each road
segment", improved by "(1) a convolutional neural network for training the
road speed prediction model; ... (3) a Gaussian Mixture model for an
alternative traffic prediction with incomplete data".

Both models are from scratch: EM for the GMM, SGD with manual
backpropagation for the (1D) CNN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import EverestError

INTERVALS_PER_DAY = 96  # 15-minute bins


@dataclass
class SpeedProfile:
    """Macroscopic per-segment parameters per 15-minute interval."""

    segment_id: int
    mean_speed: np.ndarray   # (96,)
    flow: np.ndarray         # vehicles per interval
    samples: np.ndarray      # observation count per interval

    @classmethod
    def from_observations(cls, segment_id: int,
                          observations: List[Tuple[float, float]],
                          freeflow_ms: float) -> "SpeedProfile":
        """Build from (time_of_day_seconds, speed) pairs."""
        sums = np.zeros(INTERVALS_PER_DAY)
        counts = np.zeros(INTERVALS_PER_DAY)
        for t_seconds, speed in observations:
            interval = int(t_seconds // 900) % INTERVALS_PER_DAY
            sums[interval] += speed
            counts[interval] += 1
        mean = np.where(counts > 0, sums / np.maximum(counts, 1),
                        freeflow_ms)
        return cls(segment_id, mean, counts.copy(), counts)

    def speed_at(self, t_seconds: float) -> float:
        return float(self.mean_speed[int(t_seconds // 900)
                                     % INTERVALS_PER_DAY])


def diurnal_congestion(t_seconds: float) -> float:
    """A weekday congestion factor: morning and evening peaks."""
    hour = (t_seconds / 3600.0) % 24
    morning = np.exp(-0.5 * ((hour - 8.0) / 1.2)**2)
    evening = np.exp(-0.5 * ((hour - 17.5) / 1.5)**2)
    return float(1.0 - 0.45 * max(morning, evening))


class GaussianMixture1D:
    """EM-fitted mixture of 1D Gaussians (speed distributions)."""

    def __init__(self, components: int = 3, seed: int = 0,
                 max_iter: int = 100, tol: float = 1e-6):
        if components < 1:
            raise EverestError("need at least one component")
        self.k = components
        self.seed = seed
        self.max_iter = max_iter
        self.tol = tol
        self.weights: Optional[np.ndarray] = None
        self.means: Optional[np.ndarray] = None
        self.stds: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "GaussianMixture1D":
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.size < self.k:
            raise EverestError("fewer samples than components")
        rng = np.random.default_rng(self.seed)
        self.means = np.quantile(
            x, np.linspace(0.1, 0.9, self.k)
        ) + rng.normal(0, 1e-3, self.k)
        self.stds = np.full(self.k, x.std() / self.k + 1e-3)
        self.weights = np.full(self.k, 1.0 / self.k)
        last_ll = -np.inf
        for _ in range(self.max_iter):
            resp = self._responsibilities(x)
            nk = resp.sum(axis=0) + 1e-12
            self.weights = nk / x.size
            self.means = (resp * x[:, None]).sum(axis=0) / nk
            variance = (resp * (x[:, None] - self.means)**2).sum(axis=0) / nk
            self.stds = np.sqrt(np.maximum(variance, 1e-6))
            ll = self.log_likelihood(x)
            if abs(ll - last_ll) < self.tol:
                break
            last_ll = ll
        return self

    def _pdf_matrix(self, x: np.ndarray) -> np.ndarray:
        z = (x[:, None] - self.means) / self.stds
        return np.exp(-0.5 * z * z) / (self.stds * np.sqrt(2 * np.pi))

    def _responsibilities(self, x: np.ndarray) -> np.ndarray:
        weighted = self._pdf_matrix(x) * self.weights
        return weighted / (weighted.sum(axis=1, keepdims=True) + 1e-300)

    def log_likelihood(self, x: np.ndarray) -> float:
        weighted = self._pdf_matrix(np.asarray(x).reshape(-1)) * self.weights
        return float(np.log(weighted.sum(axis=1) + 1e-300).sum())

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.means is None:
            raise EverestError("fit the mixture first")
        component = rng.choice(self.k, size=n, p=self.weights)
        return rng.normal(self.means[component], self.stds[component])


class SpeedCNN:
    """A small 1D CNN predicting the next interval's speed from a window.

    conv(1->c, width w) -> ReLU -> mean-pool(2) -> dense -> scalar.
    Trained by SGD with manually derived gradients (no autograd).
    """

    def __init__(self, window: int = 16, channels: int = 8,
                 kernel: int = 5, seed: int = 0):
        if window <= kernel:
            raise EverestError("window must exceed the kernel width")
        rng = np.random.default_rng(seed)
        self.window = window
        self.channels = channels
        self.kernel = kernel
        self.conv_w = rng.normal(0, np.sqrt(2.0 / kernel),
                                 (channels, kernel))
        self.conv_b = np.zeros(channels)
        conv_len = window - kernel + 1
        self.pooled_len = conv_len // 2
        self.dense_w = rng.normal(
            0, np.sqrt(2.0 / (channels * self.pooled_len)),
            channels * self.pooled_len,
        )
        self.dense_b = 0.0

    # -- forward ---------------------------------------------------------------

    def _forward(self, x: np.ndarray):
        conv_len = self.window - self.kernel + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, self.kernel)
        conv = windows @ self.conv_w.T + self.conv_b  # (conv_len, channels)
        relu = np.maximum(conv, 0.0)
        pooled = relu[: self.pooled_len * 2].reshape(
            self.pooled_len, 2, self.channels
        ).mean(axis=1)
        flat = pooled.T.reshape(-1)  # channel-major
        out = float(flat @ self.dense_w + self.dense_b)
        return out, (x, windows, conv, relu, pooled, flat)

    def predict(self, x: np.ndarray) -> float:
        out, _ = self._forward(np.asarray(x, dtype=np.float64))
        return out

    # -- training -----------------------------------------------------------------

    def _backward(self, cache, grad_out: float, lr: float) -> None:
        x, windows, conv, relu, pooled, flat = cache
        grad_dense_w = grad_out * flat
        grad_flat = grad_out * self.dense_w
        grad_pooled = grad_flat.reshape(self.channels, self.pooled_len).T
        grad_relu = np.zeros_like(relu)
        # Mean-pool backward: each pooled cell feeds two conv rows at 1/2.
        for p in range(self.pooled_len):
            grad_relu[2 * p] += grad_pooled[p] / 2.0
            grad_relu[2 * p + 1] += grad_pooled[p] / 2.0
        grad_conv = grad_relu * (conv > 0)
        grad_conv_w = grad_conv.T @ windows  # (channels, kernel)
        grad_conv_b = grad_conv.sum(axis=0)
        self.dense_w -= lr * grad_dense_w
        self.dense_b -= lr * grad_out
        self.conv_w -= lr * grad_conv_w
        self.conv_b -= lr * grad_conv_b

    def fit(self, series: np.ndarray, epochs: int = 30, lr: float = 1e-3,
            seed: int = 0) -> List[float]:
        """Train on a speed series; returns the per-epoch MSE curve."""
        series = np.asarray(series, dtype=np.float64)
        if series.size <= self.window:
            raise EverestError("series shorter than the window")
        scale = series.std() + 1e-9
        offset = series.mean()
        normalized = (series - offset) / scale
        self._scale, self._offset = scale, offset
        rng = np.random.default_rng(seed)
        n = series.size - self.window
        losses: List[float] = []
        for _ in range(epochs):
            order = rng.permutation(n)
            total = 0.0
            for i in order:
                x = normalized[i: i + self.window]
                y = normalized[i + self.window]
                out, cache = self._forward(x)
                err = out - y
                total += err * err
                self._backward(cache, 2.0 * err, lr)
            losses.append(total / n)
        return losses

    def predict_speed(self, recent: np.ndarray) -> float:
        """Predict the next 15-minute speed from the trailing window."""
        recent = np.asarray(recent, dtype=np.float64)
        normalized = (recent[-self.window:] - self._offset) / self._scale
        return float(self.predict(normalized) * self._scale + self._offset)

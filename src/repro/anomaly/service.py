"""The detection node and data loading (paper §VII).

"The detection node receives the same data as the model selection node and
runs the model on the provided data to detect anomalies.  As output, the
node produces a JSON file containing the indexes of data points that are
considered anomalous...  The model is continuously updated with current
data.  The library handles most common data formats, but a simple
configuration file must be provided to load the data if a special format
is used."
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.anomaly.automl import SelectionResult
from repro.anomaly.detectors import Detector
from repro.errors import AnomalyError


@dataclass
class DataConfig:
    """The "simple configuration file" for special data formats.

    * ``delimiter``/``skip_header`` for text files;
    * ``columns`` selects a feature subset;
    * ``transpose`` for row-major sensor dumps.
    """

    delimiter: str = ","
    skip_header: int = 0
    columns: Optional[List[int]] = None
    transpose: bool = False


def load_data(path: str, config: Optional[DataConfig] = None) -> np.ndarray:
    """Load ``.npy``, ``.csv`` or ``.txt`` data with optional config."""
    config = config or DataConfig()
    suffix = Path(path).suffix.lower()
    if suffix == ".npy":
        data = np.load(path)
    elif suffix in (".csv", ".txt", ".tsv"):
        data = np.genfromtxt(path, delimiter=config.delimiter,
                             skip_header=config.skip_header)
    else:
        raise AnomalyError(f"unsupported data format: {suffix!r}")
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if config.transpose:
        data = data.T
    if config.columns is not None:
        data = data[:, config.columns]
    return data


@dataclass
class DetectionReport:
    """The JSON-serializable output of one detection run."""

    anomalies: List[int]
    n_samples: int
    detector: str
    contamination: float

    def to_json(self) -> str:
        return json.dumps({
            "anomalies": self.anomalies,
            "n_samples": self.n_samples,
            "detector": self.detector,
            "contamination": self.contamination,
        }, indent=2)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())


class DetectionNode:
    """Runs the selected model on incoming data; continuously updates."""

    def __init__(self, selection: SelectionResult,
                 update_window: int = 1024):
        self.detector: Detector = selection.detector
        self.detector_name = selection.detector_name
        self.contamination = selection.contamination
        self.update_window = update_window
        self._history: List[np.ndarray] = []

    def detect(self, X: np.ndarray,
               output_path: Optional[str] = None) -> DetectionReport:
        """Score a batch; optionally write the JSON report."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        indexes = self.detector.predict_indexes(X, self.contamination)
        report = DetectionReport(
            anomalies=indexes,
            n_samples=int(X.shape[0]),
            detector=self.detector_name,
            contamination=self.contamination,
        )
        if output_path:
            report.write(output_path)
        self._update(X, indexes)
        return report

    def _update(self, X: np.ndarray, anomalous: List[int]) -> None:
        """Continuous update: refit on recent *normal* data."""
        normal = np.delete(X, anomalous, axis=0)
        if normal.size == 0:
            return
        self._history.append(normal)
        window = np.concatenate(self._history)[-self.update_window:]
        if window.shape[0] >= 8:
            try:
                self.detector.fit(window)
            except AnomalyError:
                pass  # e.g. LOF needs more than k samples; keep old model

"""Tree-structured Parzen Estimator (TPE), from scratch.

The paper's model-selection node uses "the Tree-structured Parzen Estimator
algorithm for hyperparameter sampling of Optuna" (Akiba et al., KDD 2019;
Bergstra et al., NeurIPS 2011).  Minimization flow:

1. split past trials at the γ-quantile into *good* and *bad* sets;
2. model each parameter's good/bad densities with Parzen (kernel) windows —
   Gaussians for continuous, weighted categorical mass otherwise;
3. sample candidates from the *good* density and pick the one maximizing
   the density ratio ``l(x)/g(x)`` (equivalent to expected improvement).

Search-space grammar (the "tree" lives in conditional spaces; here the
conditioning is on the ``choice`` of detector, handled by namespacing)::

    {"detector": ("choice", ["zscore", "iforest"]),
     "iforest.n_trees": ("int", 16, 128),
     "threshold": ("uniform", 0.5, 5.0),
     "lr": ("loguniform", 1e-4, 1e-1)}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnomalyError

ParamSpec = Tuple  # ("uniform", lo, hi) | ("loguniform", lo, hi) | ("int", lo, hi) | ("choice", [...])


@dataclass
class Trial:
    """One evaluated configuration."""

    number: int
    params: Dict[str, object]
    value: float


class TPESampler:
    """Sequential model-based optimizer (minimizes the objective)."""

    def __init__(self, space: Dict[str, ParamSpec], seed: int = 0,
                 gamma: float = 0.25, n_startup: int = 8,
                 n_candidates: int = 24):
        for name, spec in space.items():
            if spec[0] not in ("uniform", "loguniform", "int", "choice"):
                raise AnomalyError(f"bad spec for {name!r}: {spec[0]}")
        self.space = space
        self.rng = np.random.default_rng(seed)
        self.gamma = gamma
        self.n_startup = n_startup
        self.n_candidates = n_candidates
        self.trials: List[Trial] = []

    # -- sampling primitives -----------------------------------------------------

    def _sample_prior(self, spec: ParamSpec):
        kind = spec[0]
        if kind == "uniform":
            return float(self.rng.uniform(spec[1], spec[2]))
        if kind == "loguniform":
            return float(np.exp(self.rng.uniform(np.log(spec[1]),
                                                 np.log(spec[2]))))
        if kind == "int":
            return int(self.rng.integers(spec[1], spec[2] + 1))
        return spec[1][int(self.rng.integers(len(spec[1])))]

    def _to_real(self, spec: ParamSpec, value) -> float:
        if spec[0] == "loguniform":
            return math.log(value)
        return float(value)

    def _from_real(self, spec: ParamSpec, real: float):
        if spec[0] == "loguniform":
            real = math.exp(real)
            return float(min(max(real, spec[1]), spec[2]))
        if spec[0] == "int":
            return int(round(min(max(real, spec[1]), spec[2])))
        return float(min(max(real, spec[1]), spec[2]))

    # -- Parzen densities -----------------------------------------------------------

    def _parzen(self, spec: ParamSpec, observations: List[float]):
        """A Gaussian Parzen window over observed (real-valued) points.

        The sampler mixes in a uniform prior draw (probability 0.2) so the
        optimizer keeps exploring — without it TPE over-exploits early
        lucky regions on small trial budgets.
        """
        lo = self._to_real(spec, spec[1])
        hi = self._to_real(spec, spec[2])
        span = hi - lo or 1.0
        points = np.asarray(observations, dtype=np.float64)
        bandwidth = max(span / max(4, len(points)), 0.05 * span)

        def sample() -> float:
            if self.rng.uniform() < 0.2:
                return float(self.rng.uniform(lo, hi))
            center = points[int(self.rng.integers(len(points)))]
            return float(self.rng.normal(center, bandwidth))

        def logpdf(x: float) -> float:
            z = (x - points) / bandwidth
            densities = np.exp(-0.5 * z * z) / (bandwidth
                                                * math.sqrt(2 * math.pi))
            # Mix a uniform prior component into the density (as Optuna's
            # TPE does): without it the l/g ratio degenerates at the domain
            # boundary, where both Parzen windows are vanishingly small,
            # and the optimizer gets pinned to the edges.
            mixed = 0.75 * float(densities.mean()) + 0.25 / span
            return math.log(max(mixed, 1e-300))

        return sample, logpdf

    def _categorical(self, choices: Sequence, observations: List):
        counts = np.ones(len(choices), dtype=np.float64)  # +1 smoothing
        for obs in observations:
            counts[choices.index(obs)] += 1.0
        probabilities = counts / counts.sum()

        def sample():
            return choices[int(self.rng.choice(len(choices),
                                               p=probabilities))]

        def logpdf(value) -> float:
            return math.log(probabilities[choices.index(value)])

        return sample, logpdf

    # -- the ask/tell interface ---------------------------------------------------------

    def ask(self) -> Dict[str, object]:
        """Propose the next configuration."""
        if len(self.trials) < self.n_startup:
            return {name: self._sample_prior(spec)
                    for name, spec in self.space.items()}
        ordered = sorted(self.trials, key=lambda t: t.value)
        n_good = max(1, int(math.ceil(self.gamma * len(ordered))))
        good, bad = ordered[:n_good], ordered[n_good:] or ordered[-1:]
        proposal: Dict[str, object] = {}
        for name, spec in self.space.items():
            good_obs = [t.params[name] for t in good if name in t.params]
            bad_obs = [t.params[name] for t in bad if name in t.params]
            if not good_obs or not bad_obs:
                proposal[name] = self._sample_prior(spec)
                continue
            if spec[0] == "choice":
                sample_l, logpdf_l = self._categorical(list(spec[1]),
                                                       good_obs)
                _, logpdf_g = self._categorical(list(spec[1]), bad_obs)
                candidates = [sample_l() for _ in range(self.n_candidates)]
                proposal[name] = max(
                    candidates, key=lambda c: logpdf_l(c) - logpdf_g(c)
                )
            else:
                reals_good = [self._to_real(spec, v) for v in good_obs]
                reals_bad = [self._to_real(spec, v) for v in bad_obs]
                sample_l, logpdf_l = self._parzen(spec, reals_good)
                _, logpdf_g = self._parzen(spec, reals_bad)
                candidates = [sample_l() for _ in range(self.n_candidates)]
                best = max(candidates,
                           key=lambda c: logpdf_l(c) - logpdf_g(c))
                proposal[name] = self._from_real(spec, best)
        return proposal

    def tell(self, params: Dict[str, object], value: float) -> Trial:
        trial = Trial(len(self.trials), dict(params), float(value))
        self.trials.append(trial)
        return trial

    @property
    def best_trial(self) -> Trial:
        if not self.trials:
            raise AnomalyError("no trials evaluated yet")
        return min(self.trials, key=lambda t: t.value)


def minimize(objective: Callable[[Dict[str, object]], float],
             space: Dict[str, ParamSpec], n_trials: int = 50,
             seed: int = 0, sampler: Optional[TPESampler] = None) -> Trial:
    """Optuna-style one-call optimization loop."""
    sampler = sampler or TPESampler(space, seed=seed)
    for _ in range(n_trials):
        params = sampler.ask()
        sampler.tell(params, objective(params))
    return sampler.best_trial


def random_search(objective: Callable[[Dict[str, object]], float],
                  space: Dict[str, ParamSpec], n_trials: int = 50,
                  seed: int = 0) -> Trial:
    """The baseline ``tests/test_autotuner_anomaly.py`` compares TPE
    against."""
    sampler = TPESampler(space, seed=seed, n_startup=n_trials + 1)
    for _ in range(n_trials):
        params = sampler.ask()
        sampler.tell(params, objective(params))
    return sampler.best_trial

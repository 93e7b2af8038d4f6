"""Samplers for the interaction model and the nine benchmark datasets.

Children are generated through the parent/descendant decomposition: orphans
form a homogeneous Poisson process, and each parent independently spawns a
Poisson number of children placed uniformly on [U+nu; U+b_support]. For this
model the decomposition is exact, so no thinning on the conditional intensity
is needed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .haar import as_number
from .process import EventTrain, InteractionModel, Window

__all__ = [
    "DatasetId",
    "DATASET_NAMES",
    "as_generator",
    "sim_homogeneous_poisson",
    "sim_child_process",
    "make_dataset",
]

PARENT_RATE = 50.0
ORPHAN_RATE = 20.0

# name -> (theta, nu); the "r" variants add the minimal delay nu=0.005
_DATASETS = {
    "Data_0": (0.0, 0.0),
    "Data_10": (10.0, 0.0),
    "Data_30": (30.0, 0.0),
    "Data_50": (50.0, 0.0),
    "Data_80": (80.0, 0.0),
    "Data_10r": (10.0, 0.005),
    "Data_30r": (30.0, 0.005),
    "Data_50r": (50.0, 0.005),
    "Data_80r": (80.0, 0.005),
}

DATASET_NAMES = tuple(_DATASETS)


def as_generator(seed) -> np.random.Generator:
    """The one seed rule: an int, a SeedSequence or a Generator gives a Generator.

    Anything else, None and bools included, raises TypeError, so no call
    falls back to OS entropy. A SeedSequence is copied, so one object passed
    twice gives equal draws.
    """
    if isinstance(seed, bool):
        raise TypeError("cannot build a generator from bool")
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        seed = copy.copy(seed)
    if isinstance(seed, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot build a generator from {type(seed).__name__}")


@dataclass(frozen=True)
class DatasetId:
    """One of the benchmark dataset names (Data_0 ... Data_80r)."""

    name: str

    def __post_init__(self):
        if self.name not in _DATASETS:
            raise ValueError(
                f"unknown dataset {self.name!r}; expected one of {DATASET_NAMES}"
            )

    def model(self, T: float) -> InteractionModel:
        """The shared rates and kernel support with this dataset's (theta, nu)."""
        theta, nu = _DATASETS[self.name]
        return InteractionModel(PARENT_RATE, ORPHAN_RATE, theta, nu, T)


def sim_homogeneous_poisson(rate: float, w: Window, seed) -> EventTrain:
    """Homogeneous Poisson process on a window.

    Draws N ~ Poisson(rate * |w|), then N i.i.d. uniforms on the window,
    sorted.
    """
    rate = as_number("rate", rate, float, ge=0)
    rng = as_generator(seed)
    n = rng.poisson(rate * w.length)
    times = np.sort(rng.uniform(w.lo, w.hi, size=n))
    return EventTrain(times, w)


def sim_child_process(parents: EventTrain, model: InteractionModel, seed) -> EventTrain:
    """Children of a parent train: orphans plus per-parent descendant clusters.

    Parameters
    ----------
    parents : EventTrain
        Parent events, all inside [0; model.T].
    model : InteractionModel
        Rates and step kernel theta*1_[nu; b_support].
    seed
        Anything accepted by :func:`as_generator`.

    Returns
    -------
    EventTrain
        Sorted superposition of orphans and descendants, observed on
        [-1; T+1]. Descendants of parents in [0; T] fall inside it
        automatically when b_support <= 1.
    """
    if parents.count() and (parents.times[0] < 0 or parents.times[-1] > model.T):
        raise ValueError("parents must lie in [0; T]")
    rng = as_generator(seed)
    obs = Window(-1.0, model.T + 1.0)

    n_orphans = rng.poisson(model.mu_c * obs.length)
    orphans = rng.uniform(obs.lo, obs.hi, size=n_orphans)

    span = model.b_support - model.nu
    counts = rng.poisson(model.theta * span, size=parents.count())
    total = int(counts.sum())
    offsets = rng.uniform(model.nu, model.b_support, size=total)
    descendants = np.repeat(parents.times, counts) + offsets

    return EventTrain(np.sort(np.concatenate([orphans, descendants])), obs)


def make_dataset(dataset: DatasetId, T: float, seed) -> tuple[EventTrain, EventTrain]:
    """Simulate one (parents, children) pair for a benchmark dataset.

    Parents are homogeneous Poisson(mu_p) on [0; T]; children follow the
    dataset's (theta, nu) with orphan rate mu_c on [-1; T+1]; dataset.model(T)
    owns the rates. Both trains are in original (unscaled) time and draw from
    the two children of the seed's SeedSequence (Generator.spawn).
    """
    model = dataset.model(T)
    parent_rng, child_rng = as_generator(seed).spawn(2)
    parents = sim_homogeneous_poisson(model.mu_p, Window(0.0, model.T), parent_rng)
    children = sim_child_process(parents, model, seed=child_rng)
    return parents, children

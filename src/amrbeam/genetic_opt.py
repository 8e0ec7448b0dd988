"""Genetic search over phase vectors maximizing the cooperative multicast rate.

The fitness of an individual is the cooperative average multicast rate of the
effective SNRs its phases induce, evaluated through the gamma-series law and
interpolated mutual information (deterministic, no Monte Carlo). Phases are
circular, so mutation wraps to (-pi, pi] instead of clamping. Selection,
crossover, and mutation operators are standard continuous-GA choices:
tournament selection, uniform crossover, additive Gaussian mutation with a
per-generation decaying scale, plus elitism, and they are recorded in
GaResult.metadata. Fitness evaluations within a generation are independent
(parallelizable); the reference implementation evaluates them sequentially
from a single seeded generator, so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .amr import amr_coop
from .channel_model import (
    ChannelEnsemble,
    NulledUserError,
    PhaseVector,
    effective_snrs,
    mrc_law,
    wrap_phase,
)
from .quadrature import QuadratureRule, gauss_laguerre

__all__ = ["GaConfig", "GaResult", "fitness", "ga_optimize"]


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    max_generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float | None = None  # per gene; defaults to 1/N at runtime
    mutation_scale: float = 0.3  # radians, std of the Gaussian perturbation
    mutation_decay: float = 0.99  # scale multiplier per generation
    elitism_count: int = 2
    tournament_size: int = 3
    stall_generations: int = 30  # stop after this many gens without > stall_tol gain
    stall_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ValueError(f"population must be >= 4, got {self.population}")
        if not 0 <= self.elitism_count < self.population:
            raise ValueError("elitism_count must be in [0, population)")
        for name in ("crossover_rate",):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if self.tournament_size < 1 or self.max_generations < 1 or self.stall_generations < 1:
            raise ValueError("tournament_size, max_generations and stall_generations must be positive")
        for name in ("mutation_scale", "stall_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (math.isfinite(self.mutation_decay) and self.mutation_decay > 0.0):
            raise ValueError(f"mutation_decay must be finite and > 0, got {self.mutation_decay}")


def fitness(
    phases: PhaseVector,
    ensemble: ChannelEnsemble,
    info,
    rule: QuadratureRule,
    series_tol: float = 1e-10,
) -> float:
    """Cooperative average multicast rate of one individual (bits).

    A beamformer that nulls any user gets worst-case fitness 0.
    """
    try:
        gammas = effective_snrs(ensemble, phases)
    except NulledUserError:
        return 0.0
    return amr_coop(info, mrc_law(gammas, series_tol), rule)


@dataclass
class GaResult:
    phases: PhaseVector
    best_per_generation: np.ndarray
    mean_per_generation: np.ndarray
    generations: int
    stalled: bool
    metadata: dict = field(default_factory=dict)


def ga_optimize(
    ensemble: ChannelEnsemble,
    info,
    cfg: GaConfig | None = None,
    rule: QuadratureRule | None = None,
) -> GaResult:
    """Evolve a population of phase vectors; best fitness never decreases.

    Stops at max_generations or once the best fitness has improved by no more
    than cfg.stall_tol over cfg.stall_generations consecutive generations.
    """
    cfg = cfg or GaConfig()
    rule = rule or gauss_laguerre(50)
    n = ensemble.N
    mut_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / n
    rng = np.random.default_rng(cfg.seed)

    pop = rng.uniform(-np.pi, np.pi, (cfg.population, n))

    def evaluate(population: np.ndarray) -> np.ndarray:
        return np.asarray(
            [fitness(PhaseVector(ind), ensemble, info, rule) for ind in population]
        )

    def tournament(fits: np.ndarray) -> int:
        contenders = rng.integers(0, cfg.population, cfg.tournament_size)
        return int(contenders[np.argmax(fits[contenders])])

    best_trace: list[float] = []
    mean_trace: list[float] = []
    best_theta = pop[0].copy()
    best_fit = -np.inf
    scale = cfg.mutation_scale
    stalled = False

    gen = 0
    for gen in range(cfg.max_generations):
        fits = evaluate(pop)
        order = np.argsort(fits)[::-1]
        if fits[order[0]] > best_fit:
            best_fit = float(fits[order[0]])
            best_theta = pop[order[0]].copy()
        best_trace.append(float(fits[order[0]]))
        mean_trace.append(float(fits.mean()))

        lookback = cfg.stall_generations
        if len(best_trace) > lookback and (
            best_trace[-1] - best_trace[-1 - lookback] <= cfg.stall_tol
        ):
            stalled = True
            break

        children = [pop[i].copy() for i in order[: cfg.elitism_count]]
        while len(children) < cfg.population:
            pa = pop[tournament(fits)]
            pb = pop[tournament(fits)]
            if rng.random() < cfg.crossover_rate:
                mask = rng.random(n) < 0.5
                ca = np.where(mask, pa, pb)
                cb = np.where(mask, pb, pa)
            else:
                ca, cb = pa.copy(), pb.copy()
            for child in (ca, cb):
                if len(children) >= cfg.population:
                    break
                genes = rng.random(n) < mut_rate
                if genes.any():
                    child = child.copy()
                    child[genes] = wrap_phase(child[genes] + rng.normal(0.0, scale, genes.sum()))
                children.append(child)
        pop = np.asarray(children)
        scale *= cfg.mutation_decay

    return GaResult(
        phases=PhaseVector(best_theta),
        best_per_generation=np.asarray(best_trace),
        mean_per_generation=np.asarray(mean_trace),
        generations=len(best_trace),
        stalled=stalled,
        metadata={
            "selection": f"tournament-{cfg.tournament_size}",
            "crossover": "uniform",
            "mutation": "gaussian-wrap",
            "mutation_rate": mut_rate,
            "elitism": cfg.elitism_count,
            "seed": cfg.seed,
        },
    )

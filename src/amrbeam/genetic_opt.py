"""Genetic search over phase vectors maximizing the cooperative multicast rate.

The fitness of an individual is the cooperative average multicast rate of the
effective SNRs its phases induce: amr_coop over the gamma-series law (tail
tolerance SERIES_TOL) and the interpolated mutual information, on amr's
50-node Laguerre rule, with no Monte Carlo. Phases are circular, so mutation
wraps to (-pi, pi] instead of clamping. The operators are module constants,
recorded in GaResult.metadata: tournament selection among TOURNAMENT_SIZE,
uniform crossover with probability CROSSOVER_RATE, Gaussian mutation of each
gene with probability 1/N and std MUTATION_SCALE radians, shrunk by
MUTATION_DECAY per generation, and ELITISM_COUNT elites. A run stops once the
best fitness gains no more than STALL_TOL over STALL_GENERATIONS generations;
GaConfig sets only the population, the generation limit and the seed. Fitness
evaluations within a generation are independent (parallelizable); the
reference implementation evaluates them sequentially, and all randomness
comes from a single seeded generator, so runs are reproducible. Each
distinct phase vector of a generation is scored once: elites and children
left unchanged by crossover and mutation repeat a vector of the generation
before, and take its fitness from there. Only that generation's scores are
kept, so the memory stays proportional to the population.
"""

from __future__ import annotations

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

__all__ = ["GaConfig", "GaResult", "fitness", "ga_optimize"]


CROSSOVER_RATE = 0.8
MUTATION_SCALE = 0.3
MUTATION_DECAY = 0.99
ELITISM_COUNT = 2
TOURNAMENT_SIZE = 3
STALL_GENERATIONS = 30
STALL_TOL = 1e-6
SERIES_TOL = 1e-10


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    max_generations: int = 200
    seed: int = 0

    def __post_init__(self):
        # population >= 4 also keeps the ELITISM_COUNT elites below the population
        if self.population < 4:
            raise ValueError(f"population must be >= 4, got {self.population}")
        if self.max_generations < 1:
            raise ValueError(f"max_generations must be >= 1, got {self.max_generations}")


def fitness(phases: PhaseVector, ensemble: ChannelEnsemble, info) -> float:
    """Cooperative average multicast rate of one individual (bits).

    A beamformer that nulls any user gets worst-case fitness 0.
    """
    try:
        gammas = effective_snrs(ensemble, phases)
    except NulledUserError:
        return 0.0
    return amr_coop(info, mrc_law(gammas, SERIES_TOL))


@dataclass
class GaResult:
    phases: PhaseVector
    best_per_generation: np.ndarray
    mean_per_generation: np.ndarray
    generations: int
    stalled: bool
    metadata: dict = field(default_factory=dict)


def ga_optimize(ensemble: ChannelEnsemble, info, cfg: GaConfig | None = None) -> GaResult:
    """Evolve a population of phase vectors; best fitness never decreases.

    Stops at max_generations or once the best fitness has improved by no more
    than STALL_TOL over STALL_GENERATIONS consecutive generations.
    """
    cfg = cfg or GaConfig()
    n = ensemble.N
    mut_rate = 1.0 / n
    rng = np.random.default_rng(cfg.seed)

    pop = rng.uniform(-np.pi, np.pi, (cfg.population, n))

    def evaluate(population: np.ndarray, last: dict) -> tuple[np.ndarray, dict]:
        """Fitness per row, and the scores by phase bytes to pass as the next ``last``.

        A row already scored in this population or in ``last`` is not scored again.
        """
        keys = [ind.tobytes() for ind in population]
        scores: dict = {}
        for key, ind in zip(keys, population):
            if key not in scores:
                scores[key] = last[key] if key in last else fitness(PhaseVector(ind), ensemble, info)
        return np.asarray([scores[key] for key in keys]), scores

    def tournament(fits: np.ndarray) -> int:
        contenders = rng.integers(0, cfg.population, TOURNAMENT_SIZE)
        return int(contenders[np.argmax(fits[contenders])])

    best_trace: list[float] = []
    mean_trace: list[float] = []
    best_theta = pop[0].copy()
    best_fit = -np.inf
    scale = MUTATION_SCALE
    stalled = False
    scores: dict = {}

    for _ in range(cfg.max_generations):
        fits, scores = evaluate(pop, scores)
        order = np.argsort(fits)[::-1]
        if fits[order[0]] > best_fit:
            best_fit = float(fits[order[0]])
            best_theta = pop[order[0]].copy()
        best_trace.append(float(fits[order[0]]))
        mean_trace.append(float(fits.mean()))

        if len(best_trace) > STALL_GENERATIONS and (
            best_trace[-1] - best_trace[-1 - STALL_GENERATIONS] <= STALL_TOL
        ):
            stalled = True
            break

        children = [pop[i].copy() for i in order[:ELITISM_COUNT]]
        while len(children) < cfg.population:
            pa = pop[tournament(fits)]
            pb = pop[tournament(fits)]
            if rng.random() < CROSSOVER_RATE:
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
        scale *= MUTATION_DECAY

    return GaResult(
        phases=PhaseVector(best_theta),
        best_per_generation=np.asarray(best_trace),
        mean_per_generation=np.asarray(mean_trace),
        generations=len(best_trace),
        stalled=stalled,
        metadata={
            "selection": f"tournament-{TOURNAMENT_SIZE}",
            "crossover": "uniform",
            "mutation": "gaussian-wrap",
            "mutation_rate": mut_rate,
            "elitism": ELITISM_COUNT,
            "seed": cfg.seed,
        },
    )

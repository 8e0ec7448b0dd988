"""Genetic search over phase vectors maximizing the cooperative multicast rate.

The fitness of an individual is the cooperative average multicast rate of the
effective SNRs gamma_bar * q_k its phases induce: amr_coop over the
gamma-series law (tail tolerance SERIES_TOL) and the interpolated mutual
information, on amr's 50-node Laguerre rule, with no Monte Carlo; a vector
whose law needs more terms than mrc_law allows scores 0, as a nulled one does.
Phases are circular, so mutation wraps to (-pi, pi] instead of clamping. The
operators are module constants, recorded in GaResult.metadata: tournament
selection among TOURNAMENT_SIZE, uniform crossover with probability
CROSSOVER_RATE, Gaussian mutation of each gene with probability 1/N and std
MUTATION_SCALE radians, shrunk by MUTATION_DECAY per generation, and
ELITISM_COUNT elites. A run stops once the best fitness gains no more than
STALL_TOL over STALL_GENERATIONS generations; GaConfig sets only the
population, the generation limit and the seed. All randomness comes from a
single seeded generator, so runs are reproducible. Each distinct phase vector
of a generation is scored once: elites and children left unchanged by
crossover and mutation repeat a vector of the generation before, and take its
fitness from there. Only that generation's scores are kept, so the memory
stays proportional to the population. The new vectors of a generation are
scored together (_scores), with one nulled-user test and one MI lookup for all
of them; their quadratic forms, gamma-series laws and rate sums are taken row
by row. Every score is bitwise the fitness of its vector scored alone, so the
batch changes no trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# amr_coop is not called here but stays importable: bench/layers.py wraps
# genetic_opt.amr_coop, and reads an absent name as a missing layer
from .amr import _RATE_NODES, _coop_rate, amr_coop  # noqa: F401
from .channel_model import (ChannelEnsemble, PhaseVector, TruncationError, _forms, _nulled,
                            mrc_law, wrap_phase)

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


def fitness(phases: PhaseVector, ensemble: ChannelEnsemble, gamma_bar: float, info) -> float:
    """Cooperative average multicast rate (bits) of one individual at average SNR ``gamma_bar``.

    A beamformer that nulls any user, or whose law is truncated, gets
    worst-case fitness 0.
    """
    return float(_scores(phases.thetas[None, :], ensemble, gamma_bar, info)[0][0])


def _scores(thetas: np.ndarray, ensemble: ChannelEnsemble, gamma_bar: float, info):
    """Fitness of each row of ``thetas`` (P, N), and how many rows had a truncated law.

    The rows are phases wrapped as PhaseVector holds them. Each score is
    bitwise amr_coop(info, mrc_law(gamma_bar * q, SERIES_TOL)) at the row's
    gains q, or 0 when the row nulls a user or its law is truncated. The forms
    are quadratic_forms' per-vector einsum, row by row: one "pi,kij,pj->pk"
    einsum sums in another order at some shapes (K = 1, N = 2).
    """
    f = np.exp(-1j * thetas) / math.sqrt(thetas.shape[1])
    q = np.array([_forms(ensemble, v) for v in f]).reshape(-1, ensemble.K)
    live = np.flatnonzero(~_nulled(ensemble, q, 1.0).any(axis=1))
    laws = {}
    for p in live:
        try:
            laws[p] = mrc_law(gamma_bar * q[p], SERIES_TOL)
        except TruncationError:
            pass
    nodes = np.array([law.gamma_min for law in laws.values()])[:, None] * _RATE_NODES
    mi = info.mi(nodes.ravel()).reshape(nodes.shape)
    out = np.zeros(thetas.shape[0])
    out[list(laws)] = [_coop_rate(law, row, info.constellation.bits)
                       for law, row in zip(laws.values(), mi)]
    return out, live.size - len(laws)


@dataclass
class GaResult:
    phases: PhaseVector
    best_per_generation: np.ndarray
    mean_per_generation: np.ndarray
    generations: int
    stalled: bool
    metadata: dict = field(default_factory=dict)


def ga_optimize(ensemble: ChannelEnsemble, gamma_bar: float, info,
                cfg: GaConfig | None = None) -> GaResult:
    """Evolve phase vectors at average SNR ``gamma_bar``; best fitness never decreases.

    Stops at max_generations or once the best fitness has improved by no more
    than STALL_TOL over STALL_GENERATIONS consecutive generations. The
    metadata's ``truncated_rows`` counts the vectors scored 0 for a
    truncated law.
    """
    cfg = cfg or GaConfig()
    n = ensemble.N
    mut_rate = 1.0 / n
    rng = np.random.default_rng(cfg.seed)

    pop = rng.uniform(-np.pi, np.pi, (cfg.population, n))

    def evaluate(population: np.ndarray, last: dict) -> tuple[np.ndarray, dict, int]:
        """Fitness per row, the scores by phase bytes to pass as the next ``last``,
        and how many of the rows scored here had a truncated law.

        A row scored in ``last`` is not scored again; the distinct other rows
        are wrapped and scored in one _scores call.
        """
        keys = [ind.tobytes() for ind in population]
        scores = {key: last[key] for key in keys if key in last}
        new = {key: ind for key, ind in zip(keys, population) if key not in scores}
        rows = wrap_phase(np.reshape(list(new.values()), (-1, n)))
        fits, truncated = _scores(rows, ensemble, gamma_bar, info)
        scores.update(zip(new, fits))
        return np.asarray([scores[key] for key in keys]), scores, truncated

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
    truncated_rows = 0

    for _ in range(cfg.max_generations):
        fits, scores, truncated = evaluate(pop, scores)
        truncated_rows += truncated
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
            "truncated_rows": truncated_rows,
        },
    )

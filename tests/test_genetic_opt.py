import inspect

import numpy as np
import pytest

from amrbeam import genetic_opt
from amrbeam import (
    ChannelEnsemble,
    CompositeSnrObjective,
    GaConfig,
    PhaseVector,
    amr_coop,
    effective_snrs,
    fitness,
    ga_optimize,
    make_ensemble,
    mrc_law,
    rm_cgd,
)


def test_fitness_limits(table_qam4, rng):
    e = make_ensemble(4, 5, -120.0, seed=1)
    p = PhaseVector.random(5, rng)
    assert fitness(p, e, table_qam4) < 1e-6
    # flat landscape: identity correlations make fitness phase-independent
    eI = ChannelEnsemble(np.stack([np.eye(5, dtype=complex)] * 2), 0.0)
    vals = {round(fitness(PhaseVector.random(5, rng), eI, table_qam4), 12) for _ in range(5)}
    assert len(vals) == 1


def test_fitness_delegates_to_amr_coop(table_qam4, rng):
    e = make_ensemble(4, 5, -5.0, seed=2)
    for _ in range(20):
        p = PhaseVector.random(5, rng)
        expect = amr_coop(table_qam4, mrc_law(effective_snrs(e, p), 1e-10))
        assert fitness(p, e, table_qam4) == expect


def test_fitness_nulled_user_is_zero(table_qam4):
    a = np.array([1.0, -1.0], dtype=complex)
    e = ChannelEnsemble(np.outer(a, a.conj())[None, :, :], 0.0)
    assert fitness(PhaseVector(np.zeros(2)), e, table_qam4) == 0.0


def test_flat_landscape_constant_best(table_qam4):
    eI = ChannelEnsemble(np.eye(5, dtype=complex)[None, :, :], 0.0)
    res = ga_optimize(eI, table_qam4, GaConfig(population=16, max_generations=40, seed=3))
    assert res.best_per_generation.max() - res.best_per_generation.min() < 1e-12
    assert res.stalled


def test_elitism_monotone_and_deterministic(table_qam4):
    e = make_ensemble(4, 5, -10.0, seed=21)
    cfg = GaConfig(population=24, max_generations=40, seed=5)
    r1 = ga_optimize(e, table_qam4, cfg)
    r2 = ga_optimize(e, table_qam4, cfg)
    assert np.all(np.diff(r1.best_per_generation) >= 0.0)
    assert np.array_equal(r1.best_per_generation, r2.best_per_generation)
    assert np.array_equal(r1.mean_per_generation, r2.mean_per_generation)
    assert np.array_equal(r1.phases.thetas, r2.phases.thetas)
    assert np.all(r1.phases.thetas > -np.pi) and np.all(r1.phases.thetas <= np.pi)
    assert r1.metadata["selection"] == "tournament-3"


def test_each_phase_vector_is_scored_once_per_pair_of_generations(monkeypatch, table_qam4):
    e = make_ensemble(4, 5, 0.0, seed=12)
    cfg = GaConfig(population=30, max_generations=12, seed=9)
    generations = []  # per generation: its population and the rows scored

    def counting(phases, ensemble, info):
        # the caller is ga_optimize's evaluate, scoring the rows of `population`
        population = inspect.currentframe().f_back.f_locals["population"]
        if not generations or generations[-1][0] is not population:
            generations.append((population, []))
        generations[-1][1].append(phases.thetas.tobytes())
        return fitness(phases, ensemble, info)

    monkeypatch.setattr(genetic_opt, "fitness", counting)
    res = ga_optimize(e, table_qam4, cfg)
    assert len(generations) == res.generations == 12
    calls = 0
    last = set()
    for g, (population, scored) in enumerate(generations):
        calls += len(scored)
        assert len(set(scored)) == len(scored)
        assert not set(scored) & last
        rows = [PhaseVector(row) for row in population]
        last = {p.thetas.tobytes() for p in rows}
        # every row still gets the fitness it would get if scored on its own
        fits = [fitness(p, e, table_qam4) for p in rows]
        assert res.best_per_generation[g] == max(fits)
        assert res.mean_per_generation[g] == np.mean(fits)
    assert calls < cfg.population * res.generations


def test_ga_matches_manifold_optimum_rank_one(table_qam4, rng):
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e = ChannelEnsemble(np.outer(a, a.conj())[None, :, :], 0.0)
    ref = rm_cgd(CompositeSnrObjective(e), PhaseVector.random(5, rng))
    ref_fit = fitness(ref.phases, e, table_qam4)
    res = ga_optimize(e, table_qam4, GaConfig(seed=7))
    assert res.best_per_generation[-1] >= 0.99 * ref_fit


def test_larger_population_needs_no_more_generations(table_qam4):
    # Claim: a larger population needs no more generations to reach a shared
    # fitness level. Statistic: per run, the sum of the first generations at
    # which the best fitness reaches each of several levels (fractions of the
    # lowest pop-20 final), then the mean over seeds, pop 50 <= pop 20.
    # The effect is small next to the spread: over seeds 100-139 the first
    # generation at 0.999 x the lowest pop-20 final has mean 10.45 (pop 50) vs
    # 11.75 (pop 20), per-run std 3.0 vs 4.1, with many integer ties. A median
    # at one level over 6 seeds passes only ~83 % of resampled 6-seed blocks;
    # this statistic over 16 seeds passes ~99.6 % of resampled 16-seed blocks
    # (35.9 vs 41.2 on seeds 100-115, 31.2 vs 41.7 on 116-131). After a GA
    # change, re-check that power over many seeds rather than picking new seeds.
    e = make_ensemble(4, 5, -10.0, seed=33)
    seeds = range(100, 116)
    runs = {
        pop: [ga_optimize(e, table_qam4,
                          GaConfig(population=pop, max_generations=30, seed=seed))
              for seed in seeds]
        for pop in (20, 50)
    }
    base = min(res.best_per_generation[-1] for res in runs[20])
    levels = [f * base for f in (0.99, 0.995, 0.998, 0.999)]

    def generations_to_levels(res):
        total = 0
        for level in levels:
            reach = np.nonzero(res.best_per_generation >= level)[0]
            total += reach[0] if reach.size else res.generations
        return total

    gens = {pop: np.mean([generations_to_levels(res) for res in results])
            for pop, results in runs.items()}
    assert gens[50] <= gens[20]


def test_config_validation():
    with pytest.raises(ValueError, match="population"):
        GaConfig(population=3)
    with pytest.raises(ValueError, match="max_generations"):
        GaConfig(max_generations=0)
    GaConfig(population=4, max_generations=1)

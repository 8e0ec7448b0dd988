"""Experiment runner: rate sweeps, optimizer traces, asymptotic-gap fits.

Subcommands emit machine-readable plot data (CSV or JSON), never figures.
Every output starts with a metadata header (resolved config, its SHA-256,
seeds, package version, series truncation levels) sufficient to re-run the
experiment bit-identically; nothing time-dependent is written, so identical
invocations produce identical files.

The JSON config describes the experiment. Its fields, all optional, are
constellation.{kind,order}, K, N, correlation.{model,rho,spread,seed}, snr_db,
scenario, optimizers, mc_samples, table.{db_min,db_max,points_per_decade} and
ga.{population,max_generations}; any other key (ga.seed too: the GA takes the
run seed) is a config error. The numerical constants live where they are
read: genetic_opt, manifold_opt, amr (the 50-node Laguerre rule of the rate
averages), channel_info (the Gauss-Hermite order of the MI/MMSE kernel) and
the slope fit's _GAP_WINDOWS.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .amr import (
    SaturationGap,
    amr_coop,
    amr_noncoop,
    array_gain_coop,
    array_gain_noncoop,
    fit_gap_slope,
    mellin_mmse,
)
from .channel_info import build_table
from .channel_model import (
    PhaseVector,
    effective_snrs,
    make_ensemble,
    min_snr_law,
    mrc_law,
)
from .constellation import make_psk, make_qam
from .genetic_opt import GaConfig, ga_optimize
from .manifold_opt import CompositeSnrObjective, LogGainSumObjective, rm_cgd
from .mc_sim import mc_amr

OPTIMIZERS = ("rmcgd-f1", "rmcgd-f2", "ga", "random")
_SURROGATES = {"rmcgd-f1": CompositeSnrObjective, "rmcgd-f2": LogGainSumObjective}
SCENARIOS = {"noncoop": ["non_cooperative"], "coop": ["cooperative"],
             "both": ["non_cooperative", "cooperative"]}
# gap range [low, high] in bits whose rows the decay-slope fit uses
_GAP_WINDOWS = {"non_cooperative": (1e-4, 1e-1), "cooperative": (1e-9, 1e-4)}
_MC_DRAWS = ("one MC draw set per phase vector, shared by its rows at every SNR and "
             "scenario, so their MC errors and z-tests are correlated")


class ConfigError(ValueError):
    """Configuration problem with a field path for diagnostics."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"{fld}: {message}")
        self.field = fld
        self.message = message


def _require(cond: bool, fld: str, message: str) -> None:
    if not cond:
        raise ConfigError(fld, message)


def _convert(kind, value, fld: str):
    """``kind(value)``, or ConfigError(fld) if that fails."""
    try:
        out = kind(value)
        # a bool is not a number, and an integer field refuses a fraction
        if isinstance(value, bool) or kind is int and isinstance(value, float) and out != value:
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError) as ex:
        raise ConfigError(fld, f"expected {kind.__name__}, got {value!r}") from ex


def _section(raw: dict, name: str) -> dict:
    sec = raw.get(name, {})
    _require(isinstance(sec, dict), name, "must be an object")
    return sec


# Scalar fields: dotted path in the config file -> (ExperimentConfig attribute, type)
_SCALARS = {
    "constellation.kind": ("constellation_kind", str),
    "constellation.order": ("constellation_order", int),
    "K": ("k", int),
    "N": ("n", int),
    "correlation.model": ("corr_model", str),
    "correlation.rho": ("corr_rho", float),
    "correlation.spread": ("corr_spread", float),
    "correlation.seed": ("corr_seed", int),
    "scenario": ("scenario", str),
    "table.db_min": ("table_db_min", float),
    "table.db_max": ("table_db_max", float),
    "table.points_per_decade": ("table_points_per_decade", int),
    "mc_samples": ("mc_samples", int),
    "ga.population": ("ga_population", int),
    "ga.max_generations": ("ga_max_generations", int),
}


@dataclass
class ExperimentConfig:
    constellation_kind: str = "qam"
    constellation_order: int = 4
    k: int = 4
    n: int = 5
    corr_model: str = "exponential"
    corr_rho: float = 0.7
    corr_spread: float = 0.1745
    corr_seed: int = 0
    snr_db: list = field(default_factory=lambda: [-30.0, -20.0, -10.0, 0.0, 10.0])
    scenario: str = "both"
    optimizers: list = field(default_factory=lambda: ["rmcgd-f1", "rmcgd-f2", "random"])
    table_db_min: float = -40.0
    table_db_max: float = 40.0
    table_points_per_decade: int = 40
    mc_samples: int = 0
    ga_population: int = 50
    ga_max_generations: int = 200

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = cls()
        _require(isinstance(raw, dict), "config", "must be a JSON object")
        known = {path.split(".")[0] for path in _SCALARS} | {"snr_db", "optimizers"}
        for key in raw:
            _require(key in known, key, "unknown configuration field")
        for section in dict.fromkeys(path.rpartition(".")[0] for path in _SCALARS if "." in path):
            for name in _section(raw, section):
                path = f"{section}.{name}"
                _require(path in _SCALARS, path, "unknown configuration field")
        for path, (attr, kind) in _SCALARS.items():
            section, _, name = path.rpartition(".")
            values = _section(raw, section) if section else raw
            if name in values:
                setattr(cfg, attr, _convert(kind, values[name], path))

        _require(cfg.constellation_kind in ("qam", "psk"), "constellation.kind",
                 f"must be qam or psk, got {cfg.constellation_kind!r}")
        try:
            cfg.make_constellation()
        except ValueError as ex:
            raise ConfigError("constellation.order", str(ex)) from ex
        _require(cfg.k >= 1, "K", "must be >= 1")
        _require(cfg.n >= 1, "N", "must be >= 1")
        _require(cfg.corr_model in ("exponential", "local_scattering"),
                 "correlation.model", f"unknown model {cfg.corr_model!r}")
        if cfg.corr_model == "exponential":
            _require(0.0 <= cfg.corr_rho < 1.0, "correlation.rho", "must be in [0, 1)")
        else:
            _require(0.0 < cfg.corr_spread < math.inf, "correlation.spread",
                     "must be finite and > 0")

        if "snr_db" in raw:
            cfg.snr_db = parse_snr(raw["snr_db"], fld="snr_db")
        _require(cfg.scenario in SCENARIOS, "scenario",
                 f"must be one of {sorted(SCENARIOS)}, got {cfg.scenario!r}")

        opts = raw.get("optimizers", cfg.optimizers)
        _require(isinstance(opts, (list, tuple)), "optimizers", "must be a list")
        cfg.optimizers = list(opts)
        for opt in cfg.optimizers:
            _require(opt in OPTIMIZERS, "optimizers", f"unknown optimizer {opt!r}")
        _require(len(cfg.optimizers) > 0, "optimizers", "need at least one optimizer")

        _require(cfg.table_db_min < cfg.table_db_max, "table.db_min", "must be < table.db_max")
        _require(cfg.table_points_per_decade >= 10, "table.points_per_decade", "must be >= 10")
        _require(cfg.mc_samples == 0 or cfg.mc_samples >= 10_000,
                 "mc_samples", "must be 0 (disabled) or >= 10000")
        _require(cfg.ga_population >= 4, "ga.population", "must be >= 4")
        _require(cfg.ga_max_generations >= 1, "ga.max_generations", "must be >= 1")
        return cfg

    def resolved(self) -> dict:
        out = {"snr_db": list(self.snr_db), "optimizers": list(self.optimizers)}
        for path, (attr, _kind) in _SCALARS.items():
            section, _, name = path.rpartition(".")
            (out.setdefault(section, {}) if section else out)[name] = getattr(self, attr)
        return out

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.resolved(), sort_keys=True).encode()
        ).hexdigest()

    def make_constellation(self):
        if self.constellation_kind == "qam":
            return make_qam(self.constellation_order)
        return make_psk(self.constellation_order)


def parse_snr(value, fld: str = "snr_db") -> list:
    """Accept a list of dB values or a 'start:stop:step' range string."""
    if isinstance(value, (list, tuple)):
        out = [_convert(float, v, fld) for v in value]
    elif isinstance(value, str):
        if ":" in value:
            parts = value.split(":")
            _require(len(parts) == 3, fld, f"range must be start:stop:step, got {value!r}")
            start, stop, step = (_convert(float, p, fld) for p in parts)
            _require(all(map(math.isfinite, (start, stop, step))) and step > 0 and stop >= start,
                     fld, f"need finite values, step > 0 and stop >= start, got {value!r}")
            out = [float(v) for v in np.arange(start, stop + step / 2.0, step)]
        else:
            out = [_convert(float, p, fld) for p in value.split(",") if p.strip()]
    else:
        raise ConfigError(fld, f"expected list or string, got {type(value).__name__}")
    _require(len(out) > 0, fld, "SNR list is empty")
    # within 3000 dB of 0 dB the linear SNR 10^(dB / 10) is a finite, normal double
    _require(all(abs(v) <= 3000.0 for v in out), fld,
             f"SNR values must be finite and within 3000 dB of 0 dB, got {out}")
    return out


def _format_value(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return str(v).lower()
    return str(v)


def write_rows(path: str, rows: list, columns: list, metadata: dict, fmt: str) -> None:
    """CSV with '# '-prefixed JSON metadata header, or the JSON mirror."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump({"metadata": metadata, "rows": rows}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    buf = io.StringIO()
    for line in json.dumps(metadata, sort_keys=True, indent=1).splitlines():
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_value(row.get(c)) for c in columns])
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


class Runner:
    """Shared state for one CLI invocation."""

    def __init__(self, cfg: ExperimentConfig, seed: int, out_dir: str, fmt: str):
        self.cfg = cfg
        self.seed = seed
        self.out = out_dir
        self.fmt = fmt
        self.constellation = cfg.make_constellation()
        self.ensemble = make_ensemble(
            cfg.k, cfg.n, 0.0,
            model=cfg.corr_model, seed=cfg.corr_seed,
            rho=cfg.corr_rho, spread=cfg.corr_spread,
        )
        self._table = None

    @property
    def table(self):
        if self._table is None:
            self._table = build_table(
                self.constellation,
                self.cfg.table_db_min,
                self.cfg.table_db_max,
                self.cfg.table_points_per_decade,
            )
        return self._table

    def metadata(self, extra: dict | None = None) -> dict:
        md = {
            "config": self.cfg.resolved(),
            "config_sha256": self.cfg.sha256(),
            "seed": self.seed,
            "package_version": __version__,
            "correlation_model": self.cfg.corr_model,
        }
        if extra:
            md.update(extra)
        return md

    def path(self, name: str) -> str:
        ext = "json" if self.fmt == "json" else "csv"
        return os.path.join(self.out, f"{name}.{ext}")

    def optimize(self, method: str, ens, run_seed: int):
        """One rm_cgd (RmCgdResult) or GA (GaResult) run at ``ens``'s SNR.

        rm_cgd starts from the first random phase vector of ``run_seed``; the
        GA takes ``run_seed`` as its own seed.
        """
        if method == "ga":
            ga_cfg = GaConfig(self.cfg.ga_population, self.cfg.ga_max_generations, seed=run_seed)
            return ga_optimize(ens, self.table, ga_cfg)
        start = PhaseVector.random(self.cfg.n, np.random.default_rng(run_seed))
        return rm_cgd(_SURROGATES[method](ens), start)

    def optimizer_phases(self, method: str, snr_db: float, run_seed: int) -> PhaseVector:
        """Phases produced by one method at one SNR (GA refits per SNR)."""
        if method == "random":
            return PhaseVector.random(self.cfg.n, np.random.default_rng(run_seed))
        return self.optimize(method, self.ensemble.with_snr_db(snr_db), run_seed).phases

    def rate(self, scenario: str, gammas):
        """(rate in bits, law) at per-user SNRs ``gammas``.

        The law is gamma_non (a float) for non_cooperative and the MrcLaw
        for cooperative.
        """
        if scenario == "non_cooperative":
            law = min_snr_law(gammas)
            return amr_noncoop(self.table, law), law
        law = mrc_law(gammas, 1e-10)
        return amr_coop(self.table, law), law

    def array_gain(self, scenario: str, phases: PhaseVector) -> float:
        """Array gain d of the high-SNR law; it depends on the phases, not the SNR."""
        if scenario == "non_cooperative":
            return array_gain_noncoop(self.ensemble, phases, mellin_mmse(self.constellation, 2.0))
        return array_gain_coop(self.ensemble, phases, mellin_mmse(self.constellation, self.cfg.k + 1.0))


def _seed_for(base: int, *parts: int) -> int:
    return int(np.random.SeedSequence([base, *parts]).generate_state(1)[0])


def _gap_law(gain: float, gamma_bar: float, diversity: float) -> float:
    """High-SNR saturation gap (d * gamma_bar)^-G of diversity order G.

    numpy arithmetic: where the power overflows the gap is inf, not an
    OverflowError; for finite results it is the C pow of Python floats.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.float64(gain * gamma_bar) ** -diversity)


def cmd_evaluate(runner: Runner) -> int:
    """Rate table per optimizer, SNR and scenario.

    With ``mc_samples`` set, each phase vector gets one MC draw set that its
    rows at every SNR and scenario share: one per SNR-independent method, one
    per SNR for ``ga``. The metadata lists the MC seeds per configured
    optimizer, in config order.
    """
    cfg = runner.cfg
    scenarios = SCENARIOS[cfg.scenario]
    rows = []
    snr_independent = {"rmcgd-f1", "rmcgd-f2", "random"}
    mc_seeds = []
    for mi, method in enumerate(cfg.optimizers):
        if method in snr_independent:
            # the argmax of both surrogates is SNR-free, so reuse phases
            phases = runner.optimizer_phases(method, cfg.snr_db[0], _seed_for(runner.seed, mi))
            designs = [(phases, cfg.snr_db, _seed_for(runner.seed, mi, 1))]
        else:
            designs = [
                (runner.optimizer_phases(method, snr_db, _seed_for(runner.seed, mi, si)),
                 [snr_db], _seed_for(runner.seed, mi, si, 1))
                for si, snr_db in enumerate(cfg.snr_db)
            ]
        mc_seeds.append([mc_seed for _, _, mc_seed in designs])
        for phases, snrs, mc_seed in designs:
            ensembles = [runner.ensemble.with_snr_db(snr_db) for snr_db in snrs]
            mc = None
            if cfg.mc_samples:
                mc = mc_amr(runner.ensemble, phases, runner.table,
                            [ens.gamma_bar for ens in ensembles], cfg.mc_samples, mc_seed,
                            scenarios)
            gains = {scenario: runner.array_gain(scenario, phases) for scenario in scenarios}
            for j, ens in enumerate(ensembles):
                gammas = effective_snrs(ens, phases)
                for scenario in scenarios:
                    coop = scenario == "cooperative"
                    amr, law = runner.rate(scenario, gammas)
                    # G = 1 divides: 1 / x and pow(x, -1) differ in the last bit for some x
                    gap = (_gap_law(gains[scenario], ens.gamma_bar, float(cfg.k)) if coop
                           else float(1.0 / np.float64(gains[scenario] * ens.gamma_bar)))
                    est = mc[scenario][j] if mc else None
                    rows.append({
                        "method": method,
                        "scenario": scenario,
                        "snr_db": ens.snr_db,
                        "diversity_order": float(cfg.k) if coop else 1.0,
                        "amr_bits": amr,
                        "gamma_non": None if coop else law,
                        "series_truncation": law.L if coop else None,
                        "array_gain": gains[scenario],
                        "asymptote_bits": runner.constellation.bits - gap,
                        "mc_mean": est.mean if est else None,
                        "mc_std_error": est.std_error if est else None,
                    })
    columns = ["method", "scenario", "snr_db", "amr_bits", "mc_mean", "mc_std_error",
               "asymptote_bits", "array_gain", "diversity_order", "gamma_non",
               "series_truncation"]
    extra = {"mc_seeds": mc_seeds, "mc_draws": _MC_DRAWS} if cfg.mc_samples else None
    write_rows(runner.path("amr_table"), rows, columns, runner.metadata(extra), runner.fmt)
    return 0


def cmd_convergence(runner: Runner) -> int:
    """Optimizer traces at the first configured SNR.

    The header records the run's flags: whether the GA stalled, and whether
    rm_cgd converged or its line search failed.
    """
    cfg = runner.cfg
    snr_db = cfg.snr_db[0]
    ens = runner.ensemble.with_snr_db(snr_db)
    for mi, method in enumerate(cfg.optimizers):
        if method == "random":  # a single evaluation, nothing to trace
            continue
        res = runner.optimize(method, ens, _seed_for(runner.seed, mi))
        if method == "ga":
            rows = [
                {
                    "generation": i,
                    "best": float(res.best_per_generation[i]),
                    "mean": float(res.mean_per_generation[i]),
                }
                for i in range(res.generations)
            ]
            columns = ["generation", "best", "mean"]
            # the GA's own seed (derived from the run seed) goes under "ga",
            # so it does not overwrite the run seed in the header
            extra = {"generations": res.generations, "stalled": res.stalled, "ga": res.metadata}
        else:
            rows = [
                {
                    "iteration": i,
                    "objective": float(res.objective_trace[i]),
                    "grad_norm": float(res.grad_norms[i]),
                    "step": float(res.step_sizes[i - 1]) if i > 0 else None,
                }
                for i in range(len(res.objective_trace))
            ]
            columns = ["iteration", "objective", "grad_norm", "step"]
            extra = {"converged": res.converged, "line_search_failed": res.line_search_failed,
                     "iterations": res.iterations}
        md = runner.metadata({"optimizer": method, "snr_db": snr_db, **extra})
        write_rows(runner.path(f"trace_{method.replace('-', '_')}"), rows, columns, md,
                   runner.fmt)
    return 0


def cmd_asymptotics(runner: Runner) -> int:
    """Saturation-gap table and fitted decay slopes on a high-SNR grid.

    Gaps come from SaturationGap (reliable far below what the rate-level
    quadrature resolves) and predicted gaps (d * gamma_bar)^-G from the Mellin
    constants, with diversity order G = 1 (weakest user) or K (cooperative);
    both integrate over the same node set, whose MMSE and MI come from one
    kernel pass per alphabet. Each scenario uses its own surrogate optimizer
    for the phases.
    """
    cfg = runner.cfg
    gap_eval = SaturationGap(runner.constellation)
    rows = []
    slopes = {}
    for scenario in SCENARIOS[cfg.scenario]:
        method = "rmcgd-f1" if scenario == "non_cooperative" else "rmcgd-f2"
        diversity = 1.0 if scenario == "non_cooperative" else float(cfg.k)
        phases = runner.optimizer_phases(method, cfg.snr_db[0], _seed_for(runner.seed, 7))
        gain = runner.array_gain(scenario, phases)
        gaps = []
        gbars = []
        for snr_db in cfg.snr_db:
            ens = runner.ensemble.with_snr_db(snr_db)
            gammas = effective_snrs(ens, phases)
            try:
                if scenario == "non_cooperative":
                    gap = gap_eval.noncoop(min_snr_law(gammas))
                else:
                    gap = gap_eval.coop(mrc_law(gammas, 1e-12))
            except ValueError as ex:
                raise ValueError(f"{scenario} saturation gap at {snr_db!r} dB: {ex}") from ex
            # the gap law itself: log2 M minus the asymptote cancels at small gaps
            pred = _gap_law(gain, ens.gamma_bar, diversity)
            gaps.append(gap)
            gbars.append(ens.gamma_bar)
            rows.append({
                "scenario": scenario,
                "snr_db": snr_db,
                "gap_bits": gap,
                "predicted_gap_bits": pred,
                "ratio": gap / pred if pred > 0 else None,
            })
        window = _GAP_WINDOWS[scenario]
        try:
            slope, used = fit_gap_slope(gbars, gaps, window)
            slopes[scenario] = {"slope": slope, "points_used": used, "gap_window": list(window)}
        except ValueError as ex:
            slopes[scenario] = {"error": str(ex), "gap_window": list(window)}
    md = runner.metadata({"fitted_slopes": slopes})
    write_rows(runner.path("gaps"), rows,
               ["scenario", "snr_db", "gap_bits", "predicted_gap_bits", "ratio"],
               md, runner.fmt)
    return 0


def cmd_validate(runner: Runner) -> int:
    """Monte Carlo oracle agreement (within 3 standard errors) per grid point.

    One random phase vector and one MC draw set, with seed
    ``_seed_for(seed, 5)``, serve the whole SNR grid and both scenarios, so the
    rows' MC errors and z-tests are correlated; the metadata records the seed
    and says so. Exits 1 unless every row passes.
    """
    cfg = runner.cfg
    n = cfg.mc_samples or 100_000
    rng = np.random.default_rng(_seed_for(runner.seed, 3))
    phases = PhaseVector.random(cfg.n, rng)
    scenarios = SCENARIOS[cfg.scenario]
    mc_seed = _seed_for(runner.seed, 5)
    ensembles = [runner.ensemble.with_snr_db(snr_db) for snr_db in cfg.snr_db]
    mc = mc_amr(runner.ensemble, phases, runner.table, [ens.gamma_bar for ens in ensembles],
                n, mc_seed, scenarios)
    rows = []
    all_ok = True
    for si, ens in enumerate(ensembles):
        gammas = effective_snrs(ens, phases)
        for scenario in scenarios:
            analytic, _ = runner.rate(scenario, gammas)
            est = mc[scenario][si]
            z = abs(analytic - est.mean) / est.std_error if est.std_error > 0 else 0.0
            ok = z <= 3.0
            all_ok &= ok
            rows.append({
                "scenario": scenario,
                "snr_db": ens.snr_db,
                "analytic_bits": analytic,
                "mc_mean": est.mean,
                "mc_std_error": est.std_error,
                "z": z,
                "pass": ok,
            })
    md = runner.metadata({"mc_samples": n, "mc_seed": mc_seed, "mc_draws": _MC_DRAWS,
                          "all_pass": all_ok})
    write_rows(runner.path("validation"), rows,
               ["scenario", "snr_db", "analytic_bits", "mc_mean", "mc_std_error", "z", "pass"],
               md, runner.fmt)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amrbeam",
        description="Finite-alphabet multicast rate evaluation and beamformer optimization",
    )
    # the options every subcommand takes, declared once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--seed", type=int, required=True, help="run seed (reproducibility)")
    shared.add_argument("--out", default=".", help="output directory")
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    shared.add_argument("--mc-samples", type=int, default=None)
    shared.add_argument("--snr-db", default=None,
                        help="start:stop:step range or comma list, overrides config; a "
                             "negative value may follow a space (--snr-db -30:10:5) or "
                             "'=' (--snr-db=-10,0,10)")
    shared.add_argument("--scenario", choices=sorted(SCENARIOS), default=None)
    shared.add_argument("--optimizer", action="append", choices=OPTIMIZERS, default=None,
                        help="repeatable; overrides the config optimizer list")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evaluate", "rate table over the SNR grid per optimizer and scenario"),
        ("convergence", "per-iteration / per-generation optimizer traces"),
        ("asymptotics", "saturation-gap table with fitted decay slopes"),
        ("validate", "Monte Carlo oracle agreement report"),
    ):
        sub.add_parser(name, help=help_text, parents=[shared])
    return parser


def _joined_snr_db(argv: list) -> list:
    """``argv`` with each ``--snr-db`` and a following negative value as one token.

    argparse reads a token that starts with '-' as an option unless it is one
    plain negative number, so it refuses ``--snr-db -10,0,10`` and
    ``--snr-db -30:10:5``; ``--snr-db=-10,0,10`` is the same value in one token.
    The prefixes that argparse takes for the option, from ``--sn``, join too.
    """
    out = []
    for arg in argv:
        if (out and len(out[-1]) >= 4 and "--snr-db".startswith(out[-1])
                and re.match(r"-[\d.]", arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    args = build_parser().parse_args(_joined_snr_db(sys.argv[1:] if argv is None else list(argv)))
    try:
        raw = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            except FileNotFoundError as ex:
                raise ConfigError("config", f"file not found: {args.config}") from ex
            except json.JSONDecodeError as ex:
                raise ConfigError(
                    "config", f"invalid JSON at line {ex.lineno}, column {ex.colno}: {ex.msg}"
                ) from ex
        overrides = {"snr_db": args.snr_db, "scenario": args.scenario,
                     "optimizers": args.optimizer, "mc_samples": args.mc_samples}
        if isinstance(raw, dict):  # from_dict refuses any other top level
            raw.update((k, v) for k, v in overrides.items() if v is not None)
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError as ex:
        report = {"error": {"type": "config", "field": ex.field, "message": ex.message}}
        print(json.dumps(report), file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    commands = {
        "evaluate": cmd_evaluate,
        "convergence": cmd_convergence,
        "asymptotics": cmd_asymptotics,
        "validate": cmd_validate,
    }
    try:
        runner = Runner(cfg, seed=args.seed, out_dir=args.out, fmt=args.format)
        return commands[args.command](runner)
    except (ValueError, RuntimeError) as ex:
        report = {"error": {"type": "runtime", "message": str(ex)}}
        print(json.dumps(report), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

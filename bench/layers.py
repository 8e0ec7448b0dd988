"""Where the traced run wraps amrbeam, and the per-layer metrics it derives.

`cli`, `amr` and `genetic_opt` bind their callees with ``from ... import``, so
each wrapper sits at the name the caller looks up (``amrbeam.cli.build_table``,
``amrbeam.amr.mmse_curve``, ...); class methods are wrapped on the class. A
target a later version of amrbeam no longer has is reported as absent: its
metrics are None, never zero.
"""

from __future__ import annotations

import numpy as np


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _points(i, name):
    def count(args, kwargs, result):
        return {"points": int(np.size(_arg(args, kwargs, i, name)))}
    return count


def _law(args, kwargs, law):
    return {"terms": law.L + 1, "tail_bound": float(law.tail_bound)}


def _ga(args, kwargs, res):
    return {"generations": res.generations}


def _rmcgd(args, kwargs, res):
    return {"iterations": res.iterations, "converged": int(res.converged),
            "line_search_failed": int(res.line_search_failed)}


def _mc(args, kwargs, est):
    return {"samples": int(_arg(args, kwargs, 4, "n"))}


def _fitness_counter():
    seen = set()

    def count(args, kwargs, value):
        key = np.asarray(_arg(args, kwargs, 0, "phases").thetas).tobytes()
        new = key not in seen
        seen.add(key)
        return {"new_phases": int(new), "nulled": int(value == 0.0)}
    return count


KERNEL = ("channel_info.mi_curve", "channel_info.mmse_curve", "amr.mmse_curve",
          "channel_info.DirectInfo.mi")
AVERAGE = ("amr.amr_coop", "amr.amr_noncoop", "channel_info.InfoTable.mi",
           "amr.SaturationGap.eval")


def install(tracer) -> None:
    """Wrap every layer boundary the CLI subcommands cross."""
    targets = [
        ("amrbeam.cli", "build_table", "channel_info.build_table", None),
        ("amrbeam.channel_info", "mi_curve", "channel_info.mi_curve", _points(1, "gammas")),
        ("amrbeam.channel_info", "mmse_curve", "channel_info.mmse_curve", _points(1, "gammas")),
        ("amrbeam.cli", "mellin_mmse", "amr.mellin_mmse", None),
        ("amrbeam.amr", "mmse_curve", "amr.mmse_curve", _points(1, "gammas")),
        ("amrbeam.channel_info.DirectInfo", "mi", "channel_info.DirectInfo.mi", _points(1, "gamma")),
        ("amrbeam.amr.SaturationGap", "__init__", "amr.SaturationGap.init", None),
        ("amrbeam.amr.SaturationGap", "noncoop", "amr.SaturationGap.eval", None),
        ("amrbeam.amr.SaturationGap", "coop", "amr.SaturationGap.eval", None),
        ("amrbeam.cli", "mrc_law", "channel_model.mrc_law", _law),
        ("amrbeam.genetic_opt", "mrc_law", "channel_model.mrc_law", _law),
        ("amrbeam.cli", "min_snr_law", "channel_model.min_snr_law", None),
        ("amrbeam.cli", "amr_coop", "amr.amr_coop", None),
        ("amrbeam.genetic_opt", "amr_coop", "amr.amr_coop", None),
        ("amrbeam.cli", "amr_noncoop", "amr.amr_noncoop", None),
        ("amrbeam.channel_info.InfoTable", "mi", "channel_info.InfoTable.mi", _points(1, "gamma")),
        ("amrbeam.cli", "ga_optimize", "genetic_opt.ga_optimize", _ga),
        ("amrbeam.genetic_opt", "fitness", "genetic_opt.fitness", _fitness_counter()),
        ("amrbeam.cli", "rm_cgd", "manifold_opt.rm_cgd", _rmcgd),
        ("amrbeam.cli", "mc_amr", "mc_sim.mc_amr", _mc),
        ("amrbeam.cli", "write_rows", "cli.write_rows", None),
    ]
    for target, attr, name, counter in targets:
        tracer.patch(target, attr, name, counter)


def metrics(tracer, root: str = "cli.run") -> dict:
    """Per-layer metrics of one traced CLI run whose root span is ``root``."""
    lay = tracer.layers()
    absent = set(tracer.absent())
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sum": {}, "max": {}}
    out: dict = {}

    def layer(name):
        return None if name in absent else lay.get(name, empty)

    def put(key, name, fn):
        agg = layer(name)
        out[key] = None if agg is None else fn(agg)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else None

    def count(key):
        return lambda a: a["sum"].get(key, 0)

    def calls(a):
        return a["calls"]

    def self_s(a):
        return a["self_s"]

    for name in ("channel_info.mi_curve", "channel_info.mmse_curve"):
        put(f"{name}.points", name, count("points"))
        put(f"{name}.self_s", name, self_s)
        put(f"{name}.us_per_point", name,
            lambda a: ratio(a["self_s"], a["sum"].get("points", 0), 1e6))
    put("channel_info.build_table.s", "channel_info.build_table", lambda a: a["total_s"])

    put("amr.mellin_mmse.calls", "amr.mellin_mmse", calls)
    put("amr.mellin_mmse.self_s", "amr.mellin_mmse", self_s)
    put("amr.mellin_mmse.kernel_calls", "amr.mmse_curve", calls)
    put("amr.mellin_mmse.kernel_points", "amr.mmse_curve", count("points"))
    put("amr.mellin_mmse.kernel_s", "amr.mmse_curve", self_s)

    put("channel_info.DirectInfo.mi.points", "channel_info.DirectInfo.mi", count("points"))
    put("channel_info.DirectInfo.mi.self_s", "channel_info.DirectInfo.mi", self_s)
    put("amr.SaturationGap.init_s", "amr.SaturationGap.init", self_s)
    put("amr.SaturationGap.eval_calls", "amr.SaturationGap.eval", calls)
    put("amr.SaturationGap.eval_s", "amr.SaturationGap.eval", self_s)

    law = "channel_model.mrc_law"
    put(f"{law}.calls", law, calls)
    put(f"{law}.self_s", law, self_s)
    put(f"{law}.us_per_call", law, lambda a: ratio(a["self_s"], a["calls"], 1e6))
    put(f"{law}.terms_mean", law, lambda a: ratio(a["sum"].get("terms", 0), a["calls"]))
    put(f"{law}.terms_max", law, lambda a: a["max"].get("terms", 0))
    put(f"{law}.tail_bound_max", law, lambda a: a["max"].get("tail_bound", 0.0))
    put("channel_model.min_snr_law.calls", "channel_model.min_snr_law", calls)
    put("channel_model.min_snr_law.self_s", "channel_model.min_snr_law", self_s)

    for name in ("amr.amr_coop", "amr.amr_noncoop"):
        put(f"{name}.calls", name, calls)
        put(f"{name}.self_s", name, self_s)
    name = "channel_info.InfoTable.mi"
    put(f"{name}.calls", name, calls)
    put(f"{name}.points", name, count("points"))
    put(f"{name}.self_s", name, self_s)

    ga, fit = "genetic_opt.ga_optimize", "genetic_opt.fitness"
    put(f"{ga}.self_s", ga, self_s)
    put(f"{ga}.generations", ga, count("generations"))
    put(f"{ga}.fitness_calls", fit, calls)
    put(f"{ga}.us_per_fitness", fit, lambda a: ratio(a["total_s"], a["calls"], 1e6))
    put(f"{ga}.fitness_unique_ratio", fit, lambda a: ratio(a["sum"].get("new_phases", 0), a["calls"]))
    put(f"{ga}.nulled", fit, count("nulled"))
    put(f"{fit}.self_s", fit, self_s)

    cg = "manifold_opt.rm_cgd"
    put(f"{cg}.calls", cg, calls)
    put(f"{cg}.self_s", cg, self_s)
    for key in ("iterations", "converged", "line_search_failed"):
        put(f"{cg}.{key}", cg, count(key))

    mc = "mc_sim.mc_amr"
    put(f"{mc}.calls", mc, calls)
    put(f"{mc}.self_s", mc, self_s)
    put(f"{mc}.samples", mc, count("samples"))
    put(f"{mc}.samples_per_s", mc, lambda a: ratio(a["sum"].get("samples", 0), a["total_s"]))

    put("cli.write_rows.s", "cli.write_rows", lambda a: a["total_s"])

    for group, names in (("kernel", KERNEL), ("average", AVERAGE)):
        present = [layer(n) for n in names if layer(n) is not None]
        t = sum(a["self_s"] for a in present)
        out[f"layer.{group}.self_s"] = t
        if group == "kernel":
            pts = sum(a["sum"].get("points", 0) for a in present)
            out["layer.kernel.points"] = pts
            out["layer.kernel.us_per_point"] = ratio(t, pts, 1e6)

    run = lay[root]
    out["trace.run_s"] = run["total_s"]
    out["cli.residual_s"] = run["self_s"]
    out["trace.self_sum_err_s"] = abs(sum(a["self_s"] for a in lay.values()) - run["total_s"])
    out["trace.spans"] = len(tracer.spans)
    return out

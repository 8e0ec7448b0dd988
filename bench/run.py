"""amrbeam benchmark: the CLI subcommands on three named workloads.

Run from the repository root:

    python3 bench/run.py --workload ga-design --seed 1 --seconds 36 --trace 0

Each pass over a run's inputs is a fresh Python process (bench/child.py) that
imports amrbeam from ./src, with BLAS pinned to one thread, and calls the CLI
once per input. The workload seed is turned into CLI seeds and correlation
seeds; the program only sees the generated config files and --seed. Every
output row is checked (bench/check.py), repeated runs of one input must write
byte-identical files, and the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The lines
before it are a readable report; the full record, provenance included, is
written under .bench_out/. bench/README.md documents the workloads, the
metrics and the seed baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    command: str
    output: str  # file the subcommand writes
    panel: int  # distinct inputs per run, each with its own derived seeds
    trace_panel: int  # how many of them the traced run covers
    base: dict  # config without the correlation seed


SNR_GAP = [-40.0 + 5.0 * i for i in range(17)]
SNR_MC = [-30.0 + 3.0 * i for i in range(21)]

WORKLOADS = {
    # A GA's cost is set by the SNR disparity of the ensemble it works on,
    # which varies several-fold between correlation seeds, so a run averages
    # a panel of short designs (12 generations: the 30-generation stall rule
    # never ends one early), all in one process so that more fit in a run.
    # The table spans the SNRs a 0 dB design reads.
    "ga-design": Workload(
        "convergence", "trace_ga.csv", 24, 8,
        {"constellation": {"kind": "qam", "order": 4}, "K": 4, "N": 5,
         "snr_db": [0.0], "optimizers": ["ga"],
         "table": {"db_min": -30.0, "db_max": 30.0, "points_per_decade": 10},
         "ga": {"population": 30, "max_generations": 12}},
    ),
    "gap-highsnr": Workload(
        "asymptotics", "gaps.csv", 1, 1,
        {"constellation": {"kind": "qam", "order": 4}, "K": 4, "N": 5,
         "snr_db": SNR_GAP, "scenario": "both"},
    ),
    "mc-sweep": Workload(
        "validate", "validation.csv", 1, 1,
        {"constellation": {"kind": "psk", "order": 8}, "K": 4, "N": 5,
         "snr_db": SNR_MC, "scenario": "both", "table": {"points_per_decade": 20},
         "mc_samples": 100_000},
    ),
}


class ChildError(RuntimeError):
    pass


def derive(*parts) -> int:
    """A 31-bit seed from the workload name, workload seed and role."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class Instance:
    index: int
    config: dict
    cli_seed: int
    config_path: Path


def make_instances(name: str, wl: Workload, seed: int, out: Path) -> list:
    insts = []
    for j in range(wl.panel):
        cfg = dict(wl.base)
        cfg["correlation"] = {"model": "exponential", "seed": derive(name, seed, j, "correlation")}
        path = out / f"input{j}.json"
        path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
        insts.append(Instance(j, cfg, derive(name, seed, j, "cli"), path))
    return insts


def spawn(mode: str, extra: list, report: Path) -> dict:
    """Run bench/child.py once and return its report with setup_s added."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    log = report.with_suffix(".log")
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        with open(log, "w") as fh:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(report), str(SRC), mode, *extra],
                cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
            )
    except subprocess.TimeoutExpired as ex:
        raise ChildError(f"{report.parent.name}: no result within {CHILD_TIMEOUT_S} s") from ex
    if proc.returncode != 0 or not report.exists():
        tail = log.read_text()[-2000:]
        raise ChildError(f"child exited with {proc.returncode}:\n{tail}")
    rep = json.loads(report.read_text())
    rep["setup_s"] = rep["imported_at"] - t_spawn
    return rep


class Session:
    """All child processes of one benchmark run and what was measured in them."""

    def __init__(self, name: str, wl: Workload, seed: int, out: Path):
        self.name, self.wl, self.out = name, wl, out
        self.instances = make_instances(name, wl, seed, out)
        self.children = 0
        self.setups: list = []
        self.rss: list = []
        self.hashes: dict = {}
        self.checks: dict = {}
        self.meta: dict = {}
        self.provenance: dict = {}

    def _dir(self, kind: str) -> Path:
        path = self.out / f"{kind}{self.children}"
        self.children += 1
        path.mkdir()
        return path

    def probe(self) -> float:
        rep = spawn("probe", [], self._dir("probe") / "report.json")
        self.provenance = rep["provenance"]
        return rep["setup_s"]

    def run_pass(self, insts: list, mode: str = "0") -> list:
        """One fresh process running the CLI on insts in order; its per-input runs."""
        pdir = self._dir("pass")
        outs = [pdir / f"input{i.index}" for i in insts]
        plan = [[self.wl.command, "--config", str(i.config_path), "--seed", str(i.cli_seed),
                 "--out", str(o)] for i, o in zip(insts, outs)]
        (pdir / "plan.json").write_text(json.dumps(plan, indent=1))
        rep = spawn(mode, [str(pdir / "plan.json")], pdir / "report.json")
        self.setups.append(rep["setup_s"])
        self.rss.append(rep["peak_rss_mb"])
        self.provenance = rep["provenance"]
        for inst, out, run in zip(insts, outs, rep["runs"]):
            output = out / self.wl.output
            digest = (hashlib.sha256(output.read_bytes()).hexdigest() if output.exists()
                      else f"missing (exit {run['rc']})")
            self.hashes.setdefault(inst.index, set()).add(digest)
            if inst.index not in self.checks:
                self.checks[inst.index] = self.check(inst, output)
        return rep["runs"]

    def check(self, inst: Instance, output: Path) -> check.CheckResult:
        cfg = inst.config
        bits = math.log2(cfg["constellation"]["order"])
        scenarios = ["non_cooperative", "cooperative"]
        if not output.exists():
            res = check.CheckResult(items=1)
            res.fail("output", f"{output.name} not written")
            return res
        meta, _ = check.read_output(output)
        self.meta[inst.index] = {"config_sha256": meta.get("config_sha256"), "seed": meta.get("seed")}
        if self.wl.command == "convergence":
            return check.check_convergence(output, bits, cfg["ga"]["max_generations"])
        if self.wl.command == "asymptotics":
            return check.check_asymptotics(output, bits, scenarios, cfg["snr_db"], cfg["K"])
        return check.check_validate(output, bits, scenarios, cfg["snr_db"])

    def outcome(self) -> dict:
        attempted = sum(c.items for c in self.checks.values())
        failed = sum(c.failed for c in self.checks.values())
        regressions = [r for c in self.checks.values() for r in c.regressions(self.wl.command)]
        nondeterministic = sorted(j for j, h in self.hashes.items() if len(h) != 1)
        return {
            "correct": not regressions and not nondeterministic,
            "attempted": attempted,
            "failed": failed,
            "regressions": regressions,
            "nondeterministic_inputs": nondeterministic,
        }


def passes(seconds: float, start: float, one_pass) -> int:
    """Call one_pass() at least once, and again while a further pass fits."""
    n = 0
    while True:
        t = time.monotonic()
        one_pass()
        n += 1
        if time.monotonic() - start + (time.monotonic() - t) > seconds:
            return n


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def measure(session: Session, seconds: float) -> dict:
    """Untraced passes over every input while they fit in ``seconds``."""
    times: dict = {}

    def one_pass(insts=session.instances):
        for inst, run in zip(insts, session.run_pass(insts)):
            times.setdefault(inst.index, []).append(run["run_s"])

    n = passes(seconds, time.monotonic(), one_pass)
    if n == 1:  # a second process for one input: the byte-identity check
        one_pass(session.instances[:1])
    while len(session.setups) < MIN_SETUP_SAMPLES:
        session.setups.append(session.probe())
    per_input = [statistics.median(times[j]) for j in sorted(times)]
    return {"run_s": statistics.fmean(per_input), "run_s_per_input": per_input,
            "run_s_samples": times, "passes": n}


def measure_traced(session: Session, seconds: float) -> dict:
    """An untraced and a traced pass over the traced inputs, while they fit."""
    insts = session.instances[: session.wl.trace_panel]
    plain: dict = {}
    traced: dict = {}

    def one_pass():
        for inst, run in zip(insts, session.run_pass(insts)):
            plain.setdefault(inst.index, []).append(run["run_s"])
        for inst, run in zip(insts, session.run_pass(insts, mode="1")):
            traced.setdefault(inst.index, []).append(run)

    n = passes(seconds, time.monotonic(), one_pass)
    while len(session.setups) < MIN_SETUP_SAMPLES:
        session.setups.append(session.probe())
    layers: dict = {}
    shares: dict = {}
    for key in traced[0][0]["layers"]:
        per_input = []
        for reps in traced.values():
            vals = [r["layers"][key] for r in reps]
            per_input.append(None if None in vals else statistics.median(vals))
        layers[key] = None if None in per_input else statistics.fmean(per_input)
    overhead = [statistics.median([r["run_s"] for r in traced[j]]) - statistics.median(plain[j])
                for j in traced]
    layers["trace.overhead_s"] = statistics.fmean(overhead)
    for reps in traced.values():
        for name, s in reps[0]["self_s"].items():
            shares[name] = shares.get(name, 0.0) + s / reps[0]["run_s"] / len(traced)
    return {"layers": layers, "shares": shares, "absent": traced[0][0]["absent"], "passes": n,
            "untraced_run_s": plain}


def source_provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": git_commit(), "src_sha256": digest.hexdigest()}


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report_end_to_end(name: str, session: Session, m: dict, outcome: dict) -> None:
    runs = [t for ts in m["run_s_samples"].values() for t in ts]
    run_q = quartiles(runs)
    set_q = quartiles(session.setups)
    rss_q = quartiles(session.rss)
    print(f"{'metric':<13}{'unit':<7}{'value':>11}{'q1':>11}{'median':>11}{'q3':>11}{'n':>4}")
    for label, unit, value, q, n in (
        ("run_s", "s", m["run_s"], run_q, len(runs)),
        ("setup_s", "s", statistics.median(session.setups), set_q, len(session.setups)),
        ("peak_rss_mb", "MB", statistics.median(session.rss), rss_q, len(session.rss)),
    ):
        print(f"{label:<13}{unit:<7}{value:>11.5g}{q[0]:>11.5g}{q[1]:>11.5g}{q[2]:>11.5g}{n:>4}")
    print(f"{'rows_failed':<13}{'count':<7}{outcome['failed']:>11} of {outcome['attempted']} "
          "checked rows and fits")
    rates = [c.extras["rate_bits"] for c in session.checks.values() if "rate_bits" in c.extras]
    if name == "ga-design" and rates:
        print(f"{'rate_bits':<13}{'bits':<7}{statistics.median(rates):>11.6g}  median final GA best "
              f"over {len(rates)} designs (min {min(rates):.6g}, max {max(rates):.6g})")
    else:
        print(f"{'rate_bits':<13}{'bits':<7}{'n/a':>11}  (ga-design only)")
    if name == "gap-highsnr":
        extras = session.checks[0].extras
        err = extras.get("slope_err")
        print(f"{'slope_err':<13}{'1':<7}{'missing' if err is None else fmt(err):>11}"
              f"  max |slope + G|; fitted {json.dumps(extras.get('slopes'))}")
    else:
        print(f"{'slope_err':<13}{'1':<7}{'n/a':>11}  (gap-highsnr only)")


def report_failures(session: Session) -> None:
    for j, res in sorted(session.checks.items()):
        for key, reason, kind, where in res.failures:
            tag = "seed defect" if check.is_seed_defect(session.wl.command, where) else kind
            print(f"  failed: input {j} {key}: {reason} [{tag}]")


def report_layers(t: dict) -> None:
    print("per-layer metrics (traced run, mean over traced inputs):")
    for key, v in t["layers"].items():
        print(f"  {key:<48}{fmt(v)}")
    print("self-time shares of the traced run_s:")
    for layer, share in sorted(t["shares"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<48}{100.0 * share:6.1f} %")
    if t["absent"]:
        print(f"absent layers: {', '.join(t['absent'])}")
    print("all work runs in one thread, so no layer waits on another; there is no wait metric.")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "amrbeam" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no amrbeam sources under {SRC} or no {spec_path.name}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wl = WORKLOADS[args.workload]
    out = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    session = Session(args.workload, wl, args.seed, out)

    try:
        session.probe()  # warm-up: page cache and bytecode; not a sample
        if args.trace:
            traced = measure_traced(session, args.seconds)
        else:
            m = measure(session, args.seconds)
    except ChildError as ex:
        print(f"benchmark run failed: {ex}", file=sys.stderr)
        return 1
    outcome = session.outcome()

    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**session.provenance, **source_provenance()},
        "inputs": [{"config": i.config, "config_file_sha256":
                    hashlib.sha256(i.config_path.read_bytes()).hexdigest(),
                    "cli_seed": i.cli_seed, **session.meta.get(i.index, {})}
                   for i in session.instances],
        "setup_s_samples": session.setups,
        "peak_rss_mb_samples": session.rss,
        "outcome": outcome,
        "failures": {j: c.failures for j, c in session.checks.items()},
        "extras": {j: c.extras for j, c in session.checks.items()},
    }
    print(f"== amrbeam benchmark: {args.workload} (seed {args.seed}, trace {args.trace}) ==")
    print(f"why: {why}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    for inp in record["inputs"][: (wl.trace_panel if args.trace else wl.panel)]:
        print(f"input: cli --seed {inp['cli_seed']}, config_sha256 {inp.get('config_sha256')}, "
              f"config {json.dumps(inp['config'], sort_keys=True)}")
    if args.trace:
        record.update(traced)
        report_layers(traced)
        values = traced["layers"]
        metric_spec = spec["per_layer"]
    else:
        record.update(m)
        report_end_to_end(args.workload, session, m, outcome)
        values = {"run_s": m["run_s"], "setup_s": statistics.median(session.setups),
                  "peak_rss_mb": statistics.median(session.rss)}
        metric_spec = spec["end_to_end"]
    report_failures(session)
    if outcome["regressions"]:
        print(f"REGRESSIONS (not seed defects): {outcome['regressions']}")
    if outcome["nondeterministic_inputs"]:
        print(f"NOT BYTE-IDENTICAL across runs: inputs {outcome['nondeterministic_inputs']}")
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(f"record: {(out / 'result.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {s["name"]: {"value": values.get(s["name"]), "unit": s["unit"]}
                    for s in metric_spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amrbeam import amr, channel_info
from amrbeam.cli import SCENARIOS, ConfigError, ExperimentConfig, parse_snr, run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TINY = {
    "constellation": {"kind": "qam", "order": 4},
    "K": 2,
    "N": 3,
    "snr_db": [-10.0, 0.0, 10.0],
    "mc_samples": 10_000,
    "ga": {"population": 8, "max_generations": 3},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def _read_csv(path):
    """(metadata, header, data lines) of a CSV the CLI wrote."""
    lines = Path(path).read_text().splitlines()
    meta = [line[2:] for line in lines if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("#")]
    return json.loads("\n".join(meta)), body[0].split(","), body[1:]


def test_validate_is_byte_identical_and_exit_code_is_all_pass(tiny_config, tmp_path):
    codes = []
    for name in ("a", "b"):
        codes.append(run(["validate", "--config", tiny_config, "--seed", "3",
                          "--out", str(tmp_path / name)]))
    first = (tmp_path / "a" / "validation.csv").read_bytes()
    assert first == (tmp_path / "b" / "validation.csv").read_bytes()
    meta, header, rows = _read_csv(tmp_path / "a" / "validation.csv")
    assert len(rows) == 3 * 2
    assert codes[0] == codes[1] == (0 if meta["all_pass"] else 1)
    passes = [row.split(",")[header.index("pass")] for row in rows]
    assert meta["all_pass"] == all(flag == "true" for flag in passes)
    assert isinstance(meta["mc_seed"], int)
    assert "shared" in meta["mc_draws"]


@pytest.mark.parametrize("args, output", [
    (["evaluate", "--mc-samples", "10000"], "amr_table.csv"),
    (["asymptotics"], "gaps.csv"),
    (["convergence", "--optimizer", "ga"], "trace_ga.csv"),
], ids=["evaluate", "asymptotics", "convergence"])
def test_output_is_byte_identical(tiny_config, tmp_path, args, output):
    # validate has its own byte-identity test above
    codes = [run(args + ["--config", tiny_config, "--seed", "3", "--out", str(tmp_path / name)])
             for name in ("a", "b")]
    assert codes == [0, 0]
    assert (tmp_path / "a" / output).read_bytes() == (tmp_path / "b" / output).read_bytes()


def test_config_sha256_is_the_hash_of_the_resolved_config(tmp_path):
    hashes = []
    for population in (8, 9):
        path = tmp_path / f"pop{population}.json"
        path.write_text(json.dumps({**TINY, "ga": {"population": population}}))
        out = tmp_path / f"out{population}"
        assert run(["convergence", "--optimizer", "rmcgd-f1", "--config", str(path),
                    "--seed", "1", "--out", str(out)]) == 0
        meta, _, _ = _read_csv(out / "trace_rmcgd_f1.csv")
        expect = hashlib.sha256(json.dumps(meta["config"], sort_keys=True).encode()).hexdigest()
        assert meta["config_sha256"] == expect
        hashes.append(meta["config_sha256"])
    assert hashes[0] != hashes[1]


def test_convergence_header_records_the_optimizer_flags(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**TINY, "ga": {"population": 8, "max_generations": 200}}))
    assert run(["convergence", "--optimizer", "ga", "--optimizer", "rmcgd-f1", "--config", str(path),
                "--seed", "1", "--out", str(tmp_path)]) == 0
    meta, _, rows = _read_csv(tmp_path / "trace_ga.csv")
    # a GA run ends before its generation limit only by stalling
    assert meta["stalled"] is True and meta["generations"] == len(rows) < 200
    meta, _, rows = _read_csv(tmp_path / "trace_rmcgd_f1.csv")
    assert meta["iterations"] == len(rows) - 1 < 200
    # rm_cgd stops early by converging or on a failed line search, never both
    assert {meta["converged"], meta["line_search_failed"]} == {True, False}


def _config_error(capsys, args):
    """The field of the structured config error that ``run(args)`` reports."""
    assert run(args) == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["type"] == "config", report
    return report["error"]["field"]


# 10^(dB / 10) of +-4000 dB overflows or underflows: no finite, positive linear SNR
@pytest.mark.parametrize("snr", ["nan,0", "0,inf", "0:inf:1", "-inf:0:1", "4000", "-4000"])
def test_non_finite_snr_is_a_config_error(capsys, tmp_path, snr):
    assert _config_error(capsys, ["evaluate", f"--snr-db={snr}", "--seed", "1",
                                  "--out", str(tmp_path)]) == "snr_db"
    with pytest.raises(ConfigError):
        parse_snr(snr)


def test_non_finite_snr_in_config_file_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({**TINY, "snr_db": [float("nan"), 0.0]}))
    assert _config_error(capsys, ["evaluate", "--config", str(path), "--seed", "1",
                                  "--out", str(tmp_path)]) == "snr_db"
    assert not (tmp_path / "amr_table.csv").exists()


@pytest.mark.parametrize("ga", [{"population": 3}, {"max_generations": 0}])
def test_out_of_range_ga_config_is_a_config_error(capsys, tmp_path, ga):
    path = tmp_path / "ga.json"
    path.write_text(json.dumps({**TINY, "ga": {**TINY["ga"], **ga}}))
    (name,) = ga
    assert _config_error(capsys, ["convergence", "--optimizer", "ga", "--config", str(path),
                                  "--seed", "1", "--out", str(tmp_path)]) == f"ga.{name}"


# GA fields that are now constants of genetic_opt, with their former defaults
_REMOVED_GA = {"crossover_rate": 0.8, "mutation_rate": None, "mutation_scale": 0.3,
               "mutation_decay": 0.99, "elitism_count": 2, "tournament_size": 3,
               "stall_generations": 30, "stall_tol": 1e-6}


@pytest.mark.parametrize("raw, fld", [
    *(({"ga": {**TINY["ga"], name: value}}, f"ga.{name}") for name, value in _REMOVED_GA.items()),
    ({"rmcgd": {"max_iters": 200}}, "rmcgd"),
    ({"gap_window": [1e-4, 1e-1]}, "gap_window"),
    ({"gap_window_coop": [1e-9, 1e-4]}, "gap_window_coop"),
    ({"quadrature_order": 50}, "quadrature_order"),
    ({"hermite_order": 40}, "hermite_order"),
], ids=[*(f"ga.{name}" for name in _REMOVED_GA), "rmcgd", "gap_window", "gap_window_coop",
        "quadrature_order", "hermite_order"])
def test_removed_config_field_is_a_config_error(capsys, tmp_path, raw, fld):
    path = tmp_path / "removed.json"
    path.write_text(json.dumps({**TINY, **raw}))
    out = tmp_path / "out"
    assert _config_error(capsys, ["evaluate", "--config", str(path), "--seed", "1",
                                  "--out", str(out)]) == fld
    assert not out.exists()


@pytest.mark.parametrize("raw, fld", [
    ({"K": "four"}, "K"),
    ({"snr_db": ["a"]}, "snr_db"),
    ({"correlation": {"rho": None}}, "correlation.rho"),
    ({"table": {"points_per_decade": "many"}}, "table.points_per_decade"),
    ({"mc_samples": [10_000]}, "mc_samples"),
    ({"constellation": 4}, "constellation"),
    ({"scenario": ["both"]}, "scenario"),
    # an integer field refuses a fraction or a bool instead of truncating it
    ({"K": 2.9}, "K"),
    ({"K": True}, "K"),
    ({"ga": {**TINY["ga"], "population": 8.7}}, "ga.population"),
    ({"correlation": {"seed": 1.5}}, "correlation.seed"),
    ({"correlation": {"seed": False}}, "correlation.seed"),
], ids=["K", "snr_db-list", "correlation.rho", "table", "mc_samples", "section",
        "scenario", "K-fraction", "K-bool", "ga.population-fraction", "correlation.seed-fraction",
        "correlation.seed-bool"])
def test_config_value_of_the_wrong_type_is_a_config_error(capsys, tmp_path, raw, fld):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({**TINY, **raw}))
    assert _config_error(capsys, ["evaluate", "--config", str(path), "--seed", "1",
                                  "--out", str(tmp_path)]) == fld
    assert not (tmp_path / "amr_table.csv").exists()


@pytest.mark.parametrize("text, args, fld", [
    ("null", [], "config"),
    ("5", [], "config"),
    ("[[1]]", [], "config"),
    # a command-line override must not index a non-object either
    ("null", ["--snr-db=0"], "config"),
    ('{"constellation": {"kind": "qam", "order": 8}}', [], "constellation.order"),
    ('{"constellation": {"kind": "psk", "order": 1}}', [], "constellation.order"),
    ('{"correlation": {"model": "local_scattering", "spread": "inf"}}', [], "correlation.spread"),
], ids=["null", "number", "list", "null-with-override", "qam-order-8", "psk-order-1",
        "spread-inf"])
def test_config_the_run_cannot_use_is_a_config_error(capsys, tmp_path, text, args, fld):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert _config_error(capsys, ["evaluate", "--config", str(path), *args, "--seed", "1",
                                  "--out", str(out)]) == fld
    assert not out.exists()


def test_whole_number_written_as_a_float_is_that_integer():
    cfg = ExperimentConfig.from_dict({"K": 3.0, "ga": {"population": 8.0}, "correlation": {"seed": 2.0}})
    assert (cfg.k, cfg.ga_population, cfg.corr_seed) == (3, 8, 2)
    assert all(type(v) is int for v in (cfg.k, cfg.ga_population, cfg.corr_seed))


def test_predicted_gap_is_the_gap_law_where_the_gap_is_below_rounding(tmp_path):
    # default config, cooperative at 40 dB: the gap is 5.2e-16 bits, where
    # log2 M minus the asymptote rounds to 4.4e-16 (ratio 1.17)
    assert run(["asymptotics", "--snr-db=-40:40:5", "--seed", "1", "--out", str(tmp_path)]) == 0
    _, header, rows = _read_csv(tmp_path / "gaps.csv")
    row = dict(zip(header, next(r.split(",") for r in rows
                                if r.startswith("cooperative,40.0,"))))
    assert float(row["gap_bits"]) < 1e-15
    assert abs(float(row["ratio"]) - 1.0) < 1e-2


def test_predicted_gap_that_overflows_is_inf(tmp_path):
    # at -1000 dB, (d * gamma_bar)^-4 overflows a double: the cooperative
    # asymptote log2 M - gap says -inf, the run goes on
    assert run(["evaluate", "--snr-db=-1000", "--seed", "1", "--out", str(tmp_path)]) == 0
    _, header, rows = _read_csv(tmp_path / "amr_table.csv")
    for row in (dict(zip(header, r.split(","))) for r in rows):
        asymptote = float(row["asymptote_bits"])
        assert asymptote == -math.inf if row["scenario"] == "cooperative" else math.isfinite(asymptote)


@pytest.mark.parametrize("scenario", ["noncoop", "coop"])
def test_asymptotics_refuses_an_snr_below_the_resolved_range(capsys, tmp_path, scenario):
    # default config: the saturation gap resolves the SNR density down to
    # -70 dB here; below, it fell towards 0 (or above log2 M) with exit 0
    assert run(["asymptotics", "--snr-db=-120:-30:10", "--scenario", scenario, "--seed", "1",
                "--out", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().err)["error"]
    assert report["type"] == "runtime"
    assert f"{SCENARIOS[scenario][0]} saturation gap at -120.0 dB" in report["message"]
    assert not (tmp_path / "gaps.csv").exists()
    assert run(["asymptotics", "--snr-db=-70:-30:10", "--scenario", scenario, "--seed", "1",
                "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("snr", ["-10,0,10", "-30:10:5", "-7.5"])
def test_negative_snr_list_may_follow_a_space(tiny_config, tmp_path, snr):
    # argparse reads "-10,0,10" as an option unless it follows "--snr-db="
    forms = {"space": ["--snr-db", snr], "prefix": ["--snr", snr], "equals": [f"--snr-db={snr}"]}
    for form, args in forms.items():
        assert run(["asymptotics", *args, "--config", tiny_config, "--seed", "1",
                    "--out", str(tmp_path / form)]) == 0
    space = (tmp_path / "space" / "gaps.csv").read_bytes()
    assert space == (tmp_path / "prefix" / "gaps.csv").read_bytes()
    assert space == (tmp_path / "equals" / "gaps.csv").read_bytes()
    meta, _, _ = _read_csv(tmp_path / "space" / "gaps.csv")
    assert meta["config"]["snr_db"] == parse_snr(snr)


def test_surrogate_gradient_that_overflows_is_a_runtime_error(capsys, tmp_path):
    # at 1600 dB the weakest-user surrogate's squared value overflows a double
    assert run(["evaluate", "--snr-db=1600", "--seed", "1", "--out", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["type"] == "runtime"
    assert "composite-SNR" in report["error"]["message"] and "1600" in report["error"]["message"]


def test_ga_seed_is_a_config_error(capsys, tiny_config, tmp_path):
    path = tmp_path / "ga_seed.json"
    path.write_text(json.dumps({**TINY, "ga": {**TINY["ga"], "seed": 5}}))
    assert _config_error(capsys, ["convergence", "--optimizer", "ga", "--config", str(path),
                                  "--seed", "1", "--out", str(tmp_path)]) == "ga.seed"
    # the GA runs on a seed derived from --seed, which the header records
    assert run(["convergence", "--optimizer", "ga", "--config", tiny_config, "--seed", "1",
                "--out", str(tmp_path)]) == 0
    meta, _, _ = _read_csv(tmp_path / "trace_ga.csv")
    assert "seed" not in meta["config"]["ga"]
    assert meta["seed"] == 1 and isinstance(meta["ga"]["seed"], int)


def test_every_traced_layer_reports_a_finite_metric(tiny_config, tmp_path, monkeypatch):
    # the benchmark wraps these names in its traced run, one subcommand per
    # fresh process; a name that no longer exists, or that a subcommand no
    # longer calls, reports null or no kernel points there, so it must fail
    # here first. Each subcommand gets its own tracer and empty caches, so
    # another subcommand's kernel calls cannot mask it.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for args in (["convergence", "--optimizer", "ga"], ["validate"], ["asymptotics"], ["evaluate"]):
        monkeypatch.setattr(amr, "_MELLIN_NODES", {})
        monkeypatch.setattr(channel_info, "_LAST_PASS", {})
        tracer = Tracer()
        layers.install(tracer)
        try:
            assert tracer.absent() == []
            code = tracer.wrap("cli.run", run)(args + ["--config", tiny_config, "--seed", "1",
                                                       "--out", str(tmp_path / args[0])])
            assert code == 0 or (args[0] == "validate" and code == 1), (args, code)
        finally:
            tracer.restore()
        metrics = layers.metrics(tracer)
        names = [m["name"] for m in spec["per_layer"] if m["name"] in metrics]
        assert names, args
        bad = {n: metrics[n] for n in names
               if not (type(metrics[n]) in (int, float) and math.isfinite(metrics[n]))}
        assert bad == {}, args
        assert metrics["layer.kernel.points"] > 0, args


@pytest.mark.parametrize("args, output", [
    (["evaluate", "--mc-samples", "10000"], "amr_table.csv"),
    (["asymptotics"], "gaps.csv"),
    (["validate"], "validation.csv"),
], ids=["evaluate", "asymptotics", "validate"])
def test_in_process_reruns_are_byte_identical_across_an_alphabet_change(tiny_config, tmp_path,
                                                                        monkeypatch, args, output):
    # the kernel memo and the node-set cache live for the whole process; an
    # 8-PSK run between two identical runs must not change the second one
    monkeypatch.setattr(amr, "_MELLIN_NODES", {})
    monkeypatch.setattr(channel_info, "_LAST_PASS", {})
    psk = tmp_path / "psk.json"
    psk.write_text(json.dumps({**TINY, "constellation": {"kind": "psk", "order": 8}}))
    for name, config in (("a", tiny_config), ("psk", str(psk)), ("b", tiny_config)):
        code = run(args + ["--config", config, "--seed", "3", "--out", str(tmp_path / name)])
        assert code == 0 or (args[0] == "validate" and code == 1), (name, code)
    assert (tmp_path / "a" / output).read_bytes() == (tmp_path / "b" / output).read_bytes()
    assert (tmp_path / "a" / output).read_bytes() != (tmp_path / "psk" / output).read_bytes()


def test_evaluate_fills_mc_columns(tiny_config, tmp_path):
    code = run(["evaluate", "--config", tiny_config, "--seed", "4", "--out", str(tmp_path),
                "--mc-samples", "10000", "--optimizer", "random", "--optimizer", "ga"])
    assert code == 0
    meta, header, rows = _read_csv(tmp_path / "amr_table.csv")
    assert len(rows) == 2 * 3 * 2
    for row in rows:
        cells = row.split(",")
        assert 0.0 <= float(cells[header.index("mc_mean")]) <= 2.0
        assert float(cells[header.index("mc_std_error")]) >= 0.0
    # one draw set for the SNR-free method, one per SNR for the GA
    assert [len(seeds) for seeds in meta["mc_seeds"]] == [1, 3]
    assert "shared" in meta["mc_draws"]


def test_evaluate_without_mc_has_no_mc_metadata(tiny_config, tmp_path):
    assert run(["evaluate", "--config", tiny_config, "--seed", "4", "--out", str(tmp_path),
                "--mc-samples", "0", "--optimizer", "random"]) == 0
    meta, header, rows = _read_csv(tmp_path / "amr_table.csv")
    assert "mc_seeds" not in meta and "mc_draws" not in meta
    assert all(row.split(",")[header.index("mc_mean")] == "" for row in rows)


def test_module_entry_point_writes_output(tiny_config, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-m", "amrbeam.cli", "validate", "--config", tiny_config,
         "--seed", "1", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert (tmp_path / "out" / "validation.csv").is_file()


def test_cli_run_path_loads_no_scipy(tiny_config, tmp_path):
    # every subcommand runs in one fresh interpreter; a lazy scipy import on the
    # run path would leave scipy in sys.modules, not just slow the import
    script = "\n".join([
        "import sys",
        "from amrbeam.cli import run",
        f"cfg, out = {tiny_config!r}, {str(tmp_path)!r}",
        "for args in (['evaluate', '--mc-samples', '10000'], ['asymptotics'], ['validate'],",
        "             ['convergence', '--optimizer', 'ga']):",
        "    code = run(args + ['--config', cfg, '--seed', '1', '--out', out + '/' + args[0]])",
        "    assert code == 0 or (args[0] == 'validate' and code == 1), (args, code)",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        # numpy 2 imports numpy.ma lazily, for np.unique among others
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]
    for name in ("evaluate/amr_table.csv", "asymptotics/gaps.csv", "validate/validation.csv",
                 "convergence/trace_ga.csv"):
        assert (tmp_path / name).is_file()

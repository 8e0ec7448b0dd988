import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amrbeam.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"

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
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for name in ("evaluate/amr_table.csv", "asymptotics/gaps.csv", "validate/validation.csv",
                 "convergence/trace_ga.csv"):
        assert (tmp_path / name).is_file()

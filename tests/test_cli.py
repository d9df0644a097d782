import argparse
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import polymerlab
from polymerlab import experiments
from polymerlab.cli import build_parser, main
from polymerlab.dynamics import sample_noise, simulate_recursion


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectra_stdout(capsys):
    code, out, err = run(capsys, "spectra", "--J", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,rho,weight"
    assert len(lines) == 9
    assert "csc2_identity_error" in err


def test_spectra_writes_file(tmp_path, capsys):
    code, out, _ = run(capsys, "spectra", "--J", "4", "--out",
                       str(tmp_path))
    assert code == 0
    assert (tmp_path / "spectra.csv").exists()
    assert "wrote" in out


def test_simulate_csv_and_binary(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--J", "4", "--T", "8",
                       "--seed", "2")
    assert code == 0
    assert out.splitlines()[0] == "t,n,u"
    assert len(out.strip().splitlines()) == 1 + 9 * 4   # (T+1)*J site rows

    code2, _, _ = run(capsys, "simulate", "--J", "4", "--T", "8", "--seed",
                      "2", "--format", "binary", "--out", str(tmp_path))
    assert code2 == 0
    files = os.listdir(tmp_path)
    assert any(f.endswith(".bin") for f in files)


@pytest.mark.parametrize("seed", [str(2 ** 63), str(2 ** 64)])
def test_simulate_binary_seed_out_of_range_exits_two_before_the_run(
        tmp_path, capsys, seed):
    # the dump's header holds seeds 0..2^63-1: a larger one is refused
    # before the string is simulated, and no directory is made
    out = tmp_path / "dump"
    with mock.patch("polymerlab.cli.simulate_recursion") as simulate:
        code, _, err = run(capsys, "simulate", "--J", "4", "--T", "2",
                           "--seed", seed, "--format", "binary", "--out",
                           str(out))
    assert code == 2
    assert "configuration error" in err and "2^63-1" in err
    assert not simulate.called and not out.exists()
    # the CSV stores no seed, so it takes any
    code, _, _ = run(capsys, "simulate", "--J", "4", "--T", "2", "--seed",
                     seed, "--out", str(out))
    assert code == 0 and (out / "trajectory.csv").exists()


def test_simulate_csv_keeps_the_trajectory_format(tmp_path, capsys):
    # the t-major "t,n,u" table at 12 significant digits, written out here
    # independently of the report writer, on stdout and in the file
    traj = simulate_recursion(np.zeros(4), sample_noise(2, 8, 4), 0.3)
    want = "t,n,u\n" + "".join(f"{t},{n},{traj.u[t, n]:.12g}\n"
                               for t in range(9) for n in range(4))
    argv = ("simulate", "--J", "4", "--T", "8", "--seed", "2", "--kappa",
            "0.3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == want
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "trajectory.csv").read_text() == want


def test_simulate_deterministic(capsys):
    _, a, _ = run(capsys, "simulate", "--J", "4", "--T", "6", "--seed", "9")
    _, b, _ = run(capsys, "simulate", "--J", "4", "--T", "6", "--seed", "9")
    assert a == b


def test_variance_scan(capsys):
    code, out, _ = run(capsys, "variance-scan", "--J", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("J,i,j,d,")
    assert len(lines) == 4                       # d = 1, 2, 4


def test_variance_scan_paper_text_at_width_four(capsys):
    # the whole output, written out here: the rows on stdout and the
    # ratio band on stderr
    code, out, err = run(capsys, "variance-scan", "--J", "4",
                         "--convention", "paper")
    assert code == 0
    assert out == ("J,i,j,d,convention,variance,ratio,reflected_i,"
                   "reflected_j,reflected_variance\n"
                   "4,0,1,1,paper,2,0.5,2,3,2\n"
                   "4,0,2,2,paper,2,0.25,1,3,2\n")
    assert err == ('{"convention":"paper","min_ratio":0.25,'
                   '"max_ratio":0.5}\n')


def test_gibbs_smoke(capsys):
    code, out, _ = run(capsys, "gibbs", "--J", "4", "--T", "8", "--beta",
                       "0.05", "--replicates", "400", "--seed", "1",
                       "--sampler", "importance")
    assert code == 0
    assert "log_Z_hat" in out


def test_gibbs_metropolis_smoke(capsys):
    code, out, _ = run(capsys, "gibbs", "--J", "4", "--T", "8", "--beta",
                       "0.05", "--replicates", "50", "--seed", "1",
                       "--sampler", "metropolis")
    assert code == 0
    assert "acceptance" in out


def test_gibbs_chain_reports_a_low_rate_without_warning(capsys):
    # at beta = 5 the chain accepts under 2 % of its moves: the rate is in
    # the JSON line, and nothing reaches stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "gibbs", "--J", "8", "--T", "16",
                             "--beta", "5", "--sampler", "metropolis",
                             "--replicates", "60")
    assert code == 0
    assert [str(w.message) for w in caught] == [] and err == ""
    assert '"acceptance_rate":0.018375' in out


def test_gibbs_rejects_drift(capsys):
    # a uniform drift changes neither R nor N, so it has no place in gibbs
    with pytest.raises(SystemExit) as exc:
        main(["gibbs", "--J", "8", "--T", "32", "--drift", "0.05",
              "--sampler", "importance", "--replicates", "200"])
    assert exc.value.code == 2
    assert "--drift" in capsys.readouterr().err


def test_gibbs_degenerate_beta_prints_only_the_typed_message(capsys):
    # beta * N_sum overflows to -inf log weights and the ESS is nan: the
    # typed message is the whole of stderr, with no numpy warning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "gibbs", "--J", "8", "--T", "4",
                             "--replicates", "3", "--beta", "1e308",
                             "--sampler", "importance")
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert err.startswith("sampler degeneracy: ")
    assert err.count("\n") == 1 and out == ""


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_gibbs_single_draw_reports_no_log_z_se(capsys):
    # one draw has no spread to estimate: log_Z_se and Q_se are null, with
    # no numpy warning on the way and no NaN in the JSON line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "gibbs", "--J", "8", "--T", "4",
                             "--replicates", "1", "--sampler", "importance")
    assert code == 0
    assert [str(w.message) for w in caught] == [] and err == ""
    line = json.loads(out.splitlines()[-1], parse_constant=_reject_constant)
    assert line["n"] == 1 and line["log_Z_se"] is None
    assert line["Q_se"] is None and line["Q_mean"] is not None
    assert line["log_Z_hat"] is not None


def test_gibbs_auto_keeps_importance_for_uniform_weights(capsys):
    code, out, _ = run(capsys, "gibbs", "--sampler", "auto", "--beta", "0",
                       "--replicates", "50")
    assert code == 0
    assert '"base_measure":"P_T"' in out


def test_ldp_rate_rows(capsys):
    code, out, _ = run(capsys, "ldp", "--rho", "0.5", "--x", "1,2,4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rho,sigma2,x_or_K,value,empirical,T,samples"
    assert len(lines) == 4


def test_ldp_probe_row(capsys):
    code, out, _ = run(capsys, "ldp", "--rho", "0.0", "--x", "2", "--K",
                       "2.0", "--T", "10", "--replicates", "20000",
                       "--seed", "4")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_ldp_bad_rho_exits_two(capsys):
    # AR1Params' bound on rho, reported as bad configuration
    code, out, err = run(capsys, "ldp", "--rho", "1.5", "--x", "1")
    assert code == 2 and out == ""
    assert err == ("configuration error: rho must lie in (-1, 1), "
                   "got 1.5\n")


def test_scaling_smoke(tmp_path, capsys):
    code, out, _ = run(capsys, "scaling", "--J", "4,8,16", "--T", "32",
                       "--replicates", "200", "--seed", "3", "--out",
                       str(tmp_path))
    assert code == 0
    assert (tmp_path / "scaling.csv").exists()
    assert (tmp_path / "scaling_summary.jsonl").exists()
    assert "fitted_exponent" in out


def test_scaling_flags_a_frozen_string(tmp_path, capsys):
    # at J = 2 under PAPER the only mode m >= 1 has rho = 0 and no
    # innovation, so R = 0: the row is flagged and left out of the fit,
    # which then equals the fit without J = 2 (cells are seeded by J)
    argv = ("scaling", "--T", "16", "--replicates", "50", "--convention",
            "paper")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, *argv, "--J", "2,4,8,16", "--out",
                           str(tmp_path))
    assert code == 0
    _, without, _ = run(capsys, *argv, "--J", "4,8,16")
    assert json.loads(out.splitlines()[-1]) == json.loads(without)
    _, rows = experiments.read_report_jsonl(
        str(tmp_path / "scaling_summary.jsonl"))
    assert rows[0]["J"] == 2 and rows[0]["flagged"] is True
    assert rows[0]["R_mean"] == rows[0]["R_exact"] == 0.0
    assert not any(r["flagged"] for r in rows[1:])


def test_scaling_degeneracy_exits_three(capsys):
    code, _, err = run(capsys, "scaling", "--J", "4,8,16", "--T", "16",
                       "--beta", "5.0", "--sampler", "importance",
                       "--replicates", "60", "--seed", "2")
    assert code == 3
    assert "sampler degeneracy" in err


def test_tails_smoke(capsys):
    code, out, _ = run(capsys, "tails", "--J", "8", "--T-list", "16,32",
                       "--replicates", "1200", "--seed", "5", "--K1",
                       "0.0", "--K2", "50.0")
    assert code == 0
    assert "lower_nonincreasing" in out


def test_validate_exit_zero(capsys):
    code, out, _ = run(capsys, "validate", "--seed", "1")
    assert code == 0
    assert "passed" in out


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    code, _, err = run(capsys, "scaling", "--config", str(cfg))
    assert code == 2
    assert "configuration error" in err


def test_width_above_the_cap_exits_two(capsys):
    code, out, err = run(capsys, "spectra", "--J", "5000")
    assert code == 2
    assert out == ""
    assert "configuration error" in err and "MAX_J = 4096" in err


def test_scan_width_below_four_exits_two(capsys):
    code, out, err = run(capsys, "variance-scan", "--J", "8,2")
    assert code == 2
    assert out == ""
    assert err == "configuration error: variance-scan needs widths J >= 4, " \
        "got 2\n"


def test_missing_config_exits_two(capsys):
    code, _, err = run(capsys, "validate", "--config", "/no/such/file.cfg")
    assert code == 2
    assert "configuration error" in err


def test_bad_flag_value_exits_two(capsys):
    gibbs = ("gibbs", "--T", "4", "--replicates", "10")
    for argv in (("scaling", "--J", "4,eight"), ("ldp", "--x", "1,abc"),
                 gibbs + ("--epsilon", "nan"), gibbs + ("--beta", "inf"),
                 ("ldp", "--x=-1,inf"), ("ldp", "--x", "nan"),
                 ("ldp", "--K", "inf"),
                 ("tails", "--T-list", "4,8", "--K2", "inf"),
                 ("scaling", "--J", "8,8,16", "--T", "4", "--replicates",
                  "10"),
                 ("scaling", "--J", "8,8,8", "--T", "4", "--replicates",
                  "10"),
                 # the exponent fit needs three widths: refused before any
                 # cell is sampled
                 ("scaling", "--J", "8,16", "--T", "8", "--replicates",
                  "10"),
                 # the bounds of AR1Params, of the zero-variance check and
                 # of tail_probe's threshold (K above the stationary mean
                 # 1 / (1 - 0.6^2) = 1.5625)
                 ("ldp", "--rho", "1.0"), ("ldp", "--sigma2", "0"),
                 ("ldp", "--sigma2", "-1"),
                 ("ldp", "--rho", "0.6", "--K", "1", "--T", "10",
                  "--replicates", "100")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "configuration error" in err


@pytest.mark.parametrize("argv", [
    ("gibbs", "--T", "4", "--replicates", "10"),
    ("simulate", "--T", "2"),
    ("validate",),
])
def test_negative_seed_exits_two(argv, capsys):
    code, _, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert "seed must be nonnegative" in err


FLAGS = {
    "spectra": "--config --J --kappa --out",
    "simulate": "--config --J --T --seed --kappa --format --out",
    "variance-scan": "--config --J --convention --out",
    "gibbs": "--config --J --T --beta --epsilon --seed --sampler "
             "--convention --replicates",
    "ldp": "--config --T --seed --replicates --out --rho --sigma2 --x --K",
    "scaling": "--config --J --T --beta --epsilon --seed --sampler "
               "--convention --replicates --out",
    "tails": "--config --J --T-list --beta --epsilon --seed --convention "
             "--replicates --out --K1 --K2",
    "validate": "--config --seed --out",
}


def test_each_subcommand_accepts_only_its_flags():
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings}
           - {"-h", "--help"} for name, p in sub.choices.items()}
    assert got == {name: set(flags.split()) for name, flags in FLAGS.items()}
    assert sum(map(len, got.values())) == 57


@pytest.mark.parametrize("argv", [
    ("tails", "--J", "8", "--T-list", "4,8", "--sampler", "importance"),
    ("tails", "--J", "8", "--T-list", "4,8", "--T", "999"),
    ("gibbs", "--out", "reports"),
    ("scaling", "--drift", "3"),
    ("validate", "--beta", "0.1"),
    ("spectra", "--seed", "1"),
    ("ldp", "--J", "8"),
    # no subcommand declares --drift
    ("simulate", "--drift", "1"),
])
def test_flag_of_another_subcommand_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("spectra",),
    ("simulate", "--T", "4"),
    ("gibbs", "--T", "4", "--replicates", "10"),
    ("tails", "--T-list", "4,8", "--replicates", "10"),
])
def test_one_width_commands_reject_a_width_list(argv, capsys):
    code, out, err = run(capsys, *argv, "--J", "8,16")
    assert code == 2
    assert "one width expected, got J_list = 8,16" in err
    assert out == ""


@pytest.mark.parametrize("argv", [("spectra", "--J", "6"),
                                  ("simulate", "--J", "4", "--T", "5")])
def test_config_kappa_applies_without_the_flag(argv, tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("kappa = 0.3\n")
    from_file = run(capsys, *argv, "--config", str(cfg))
    from_flag = run(capsys, *argv, "--kappa", "0.3")
    assert from_file == from_flag
    assert from_file[0] == 0
    assert from_file != run(capsys, *argv)        # default kappa = 0.5


@pytest.mark.parametrize("argv", [
    ("spectra", "--J", "4"),
    ("scaling", "--J", "4,8,16", "--T", "4", "--replicates", "10"),
])
def test_unwritable_out_exits_two(argv, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    code, _, err = run(capsys, *argv, "--out", str(blocker))
    assert code == 2
    assert err.startswith("io error:")
    assert str(blocker) in err
    assert "Traceback" not in err


# the drivers create the report directory before sampling, so an --out
# that cannot be written exits 2 before any cell runs; a writable one runs
# every cell through the same spy
@pytest.mark.parametrize("argv, cell, cells", [
    (("scaling", "--J", "4,8,16", "--T", "4", "--replicates", "10"),
     "_scaling_cell", 3),
    (("tails", "--J", "4", "--T-list", "4,8", "--beta", "0",
      "--replicates", "10"), "_tail_cell", 2),
])
def test_unwritable_out_fails_before_any_cell(argv, cell, cells, tmp_path,
                                              capsys, monkeypatch):
    calls = []
    real = getattr(experiments, cell)
    monkeypatch.setattr(experiments, cell,
                        lambda *a: calls.append(a) or real(*a))
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    code, _, err = run(capsys, *argv, "--out", str(blocker))
    assert code == 2
    assert err.startswith("io error:")
    assert calls == []
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "reports"))
    assert code == 0
    assert len(calls) == cells


def test_scaling_with_two_widths_fails_before_any_cell(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_scaling_cell",
                        lambda *a: calls.append(a))
    out_dir = tmp_path / "reports"
    code, _, err = run(capsys, "scaling", "--J", "8,16", "--T", "8",
                       "--replicates", "10", "--out", str(out_dir))
    assert code == 2
    assert "needs at least 3 widths" in err
    assert calls == [] and not out_dir.exists()


# the CLI's import graph is numpy-only: scipy alone took ~1.1 s of a
# 1.25 s cold start (python -X importtime)
_IMPORTED_SCIPY = """
import sys
import polymerlab.cli
polymerlab.cli.build_parser()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_import_loads_no_scipy():
    src = str(Path(polymerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORTED_SCIPY],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SCRIPT_TARGET = "polymerlab.cli:main"


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_declared(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("polymerlab") == SCRIPT_TARGET
    module, attr = SCRIPT_TARGET.split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["spectra", "--J", "4"]) == 0
    assert capsys.readouterr().out.startswith("m,rho,weight")


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy")
               for d in project["optional-dependencies"]["test"])


@pytest.mark.skipif(not _distribution_installed("polymerlab"),
                    reason="the polymerlab distribution is not installed "
                           "(pip install -e .)")
def test_console_script_installed():
    dist = importlib.metadata.distribution("polymerlab")
    scripts = {ep.name: ep.value for ep in dist.entry_points
               if ep.group == "console_scripts"}
    assert scripts.get("polymerlab") == SCRIPT_TARGET
    found = (shutil.which("polymerlab")
             or shutil.which("polymerlab",
                             path=sysconfig.get_path("scripts")))
    assert found is not None

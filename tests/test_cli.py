"""Command-line verbs, exit codes, and output files (invoked in-process
through main, except the BLAS thread-count check, which needs fresh
processes)."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import trihomog
from trihomog import cli, epsdomain

#: the TINY sweep of tests/test_sweep.py as a converge config
TINY_CONFIG = {"alphas": [2.0], "eps_values": [0.25], "count": 1,
               "cutoff": 2, "elements_per_period": 4, "n_elements_1d": 32}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_missing_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_cell_k_default(capsys, tmp_path):
    out = tmp_path / "k.json"
    code, stdout, _ = run_cli(capsys, "cell-k", "--out", str(out))
    assert code == 0
    k_line = [l for l in stdout.splitlines() if l.startswith("K_energy")][0]
    assert abs(float(k_line.split()[1]) - 20.0 * np.pi ** 3) < 1e-9
    assert "ok" in stdout
    assert json.loads(out.read_text())


def test_limit_spec_intermediate(capsys, tmp_path):
    out = tmp_path / "spec.json"
    code, stdout, _ = run_cli(capsys, "limit-spec", "--bc", "int",
                              "--count", "3", "--modes", "1",
                              "--out", str(out))
    assert code == 0
    lines = [l for l in stdout.splitlines() if l.startswith("lambda")]
    assert len(lines) == 3
    lams = [float(l.split()[1]) for l in lines]
    assert lams == sorted(lams)
    assert len(json.loads(out.read_text())["eigs"]) == 3


def test_limit_spec_out_records_each_mode(capsys, tmp_path):
    out = tmp_path / "spec.json"
    code, _, _ = run_cli(capsys, "limit-spec", "--bc", "int", "--count", "3",
                         "--modes", "8", "--out", str(out))
    assert code == 0
    modes = json.loads(out.read_text())["modes"]
    assert [r["m"] for r in modes] == list(range(9))
    assert [r["status"] for r in modes] == ["solved"] * 2 + ["certified"] * 7
    walk = ["m", "status", "rule", "floor", "shift", "eigenvalues", "kept",
            "seconds"]
    solver = ["n", "nnz", "fill", "factor", "move", "refine_steps",
              "block_solves", "factorizations", "start", "rounds",
              "residual", "gate"]
    assert [list(r) for r in modes[:3]] == [walk + solver] * 2 + [walk]
    # the 1D pencils are stored sparse, so they start from the random block
    assert [r["start"] for r in modes[:2]] == ["random"] * 2
    assert modes[0]["rule"] is None and modes[2]["rule"] == "floor"
    assert modes[2]["floor"] > modes[2]["shift"]
    assert [r["kept"] for r in modes[:2]] == [1, 2]


@pytest.mark.parametrize("flags", [("--bc", "int"),
                                   ("--bc", "strange", "--sign", "literal")],
                         ids=["int", "literal"])
def test_limit_spec_bits_do_not_depend_on_blas_threads(tmp_path, flags):
    # OpenBLAS reads its thread count at load, so each count needs its own
    # process; they run in tmp_path and write no bytecode
    src = str(os.path.dirname(os.path.dirname(trihomog.__file__)))
    argv = [sys.executable, "-m", "trihomog.cli", "limit-spec", *flags,
            "--K", "auto", "--count", "3", "--modes", "8"]
    lines = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(argv, cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines.append([l for l in proc.stdout.splitlines()
                      if l.startswith("lambda")])
    assert len(lines[0]) == 3
    assert lines[0] == lines[1]


def test_limit_spec_strange_explicit_k(capsys):
    code, stdout, _ = run_cli(capsys, "limit-spec", "--bc", "strange",
                              "--K", "%.17g" % (20.0 * np.pi ** 3),
                              "--sign", "flipped",
                              "--count", "1", "--modes", "0")
    assert code == 0
    lam = float(stdout.splitlines()[0].split()[1])
    assert abs(lam - 35891.4296736) < 1e-3


def test_limit_spec_bad_k_exits_2(capsys):
    code, _, err = run_cli(capsys, "limit-spec", "--bc", "strange",
                           "--K", "lots")
    assert code == 2
    assert "input error" in err


def test_eps_spec(capsys, tmp_path):
    out = tmp_path / "eps.json"
    code, stdout, _ = run_cli(capsys, "eps-spec", "--alpha", "2",
                              "--eps", "1/4", "--count", "1",
                              "--elements-per-period", "4",
                              "--out", str(out))
    assert code == 0
    lam = float(stdout.splitlines()[0].split()[1])
    assert 1.0 < lam < 1e6
    # P = 4: p = 0 is solved, and the floors of p = 1, 2 clear the shift
    assert stdout.splitlines()[-1].endswith(
        "pencils 1 solved, 2 floor-certified")
    data = json.loads(out.read_text())
    assert data["alpha"] == 2.0 and data["eps"] == 0.25


def test_eps_spec_count_1_solves_p0_alone_on_the_calling_thread(capsys,
                                                               monkeypatch):
    # count 1 needs p = 0 alone: the floors of p = 1, 2 clear the shift, so
    # nothing is handed to the worker and no thread starts.  Its lambda is
    # the first line of count 3, which hands p = 0 to the worker, up to the
    # last bits: each pencil is solved for min(count, m - 1) pairs, so its
    # subspace block, and the rounding in it, follows the count
    submits, starts = [], []

    class Recording(epsdomain.ThreadPoolExecutor):
        def submit(self, fn):
            submits.append(fn)
            return super().submit(fn)

    start = threading.Thread.start

    def recorded(thread):
        starts.append(thread)
        return start(thread)

    monkeypatch.setattr(epsdomain, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(threading.Thread, "start", recorded)
    argv = ("eps-spec", "--alpha", "2", "--eps", "1/4",
            "--elements-per-period", "4", "--count")
    code, one, _ = run_cli(capsys, *argv, "1")
    assert code == 0 and submits == [] and starts == []
    assert one.splitlines()[-1].endswith("pencils 1 solved, 2 floor-certified")
    code, three, _ = run_cli(capsys, *argv, "3")
    assert code == 0 and len(submits) == len(starts) == 1
    lam = [float(out.splitlines()[0].split()[1]) for out in (one, three)]
    assert abs(lam[0] - lam[1]) <= 1e-12 * lam[1]


def test_eps_spec_bad_eps_exits_2(capsys):
    code, _, err = run_cli(capsys, "eps-spec", "--alpha", "2",
                           "--eps", "abc")
    assert code == 2
    code, _, err = run_cli(capsys, "eps-spec", "--alpha", "2",
                           "--eps", "0.3")
    assert code == 2


def test_eps_spec_eps_too_large_exits_2(capsys):
    # eps = 1/2 is a valid perturbation, but the boundary layer (-2 eps, 0)
    # does not fit the unit depth: an input error, caught before any solve
    code, stdout, err = run_cli(capsys, "eps-spec", "--alpha", "2",
                                "--eps", "1/2")
    assert code == 2
    assert "input error" in err and "eps too large" in err
    assert not stdout


@pytest.mark.parametrize("argv", [
    ("eps-spec", "--alpha", "2", "--eps", "1/4", "--count", "0"),
    ("eps-spec", "--alpha", "2", "--eps", "1/4", "--count", "21"),
    ("limit-spec", "--bc", "int", "--count", "0"),
    ("limit-spec", "--bc", "int", "--modes", "-1"),
    ("limit-spec", "--bc", "strange", "--K", "-5"),
    ("cell-k", "--cutoff", "-1"),
    ("eps-spec", "--alpha", "1.5", "--eps", "0"),
    ("eps-spec", "--alpha", "nan", "--eps", "1/4"),
    ("limit-spec", "--bc", "strange", "--K", "nan"),
    ("limit-spec", "--bc", "strange", "--K", "inf"),
    ("converge", "--config", {"eps_values": [0.0]}),
    ("converge", "--config", {"alphas": [float("nan")]}),
    ("converge", "--config", {"count": 21}),
    ("converge", "--config", {"alpha": [2.0]}),
    ("converge", "--config", {"count": "3"}),
    ("converge", "--config", {"eps_values": 0.25}),
    ("converge", "--config", [1, 2]),
    ("converge", "--config", {"count": 2.5}),
    ("converge", "--config", {"profile_path": "no-such-profile.json"}),
    ("converge", "--config", dict(TINY_CONFIG, cutoff=2.5)),
    ("converge", "--config", dict(TINY_CONFIG, n_elements_1d=32.5)),
    ("converge", "--config", dict(TINY_CONFIG, elements_per_period=4.5)),
    ("converge", "--config", dict(TINY_CONFIG, n_layer=-1)),
    ("converge", "--config", {"eps_values": []}),
    ("converge", "--config", {"alphas": []}),
    ("converge", "--config", dict(TINY_CONFIG, eps_values=[0.25, 0.25])),
    ("converge", "--config", {"profile_path": ["a"]}),
    ("converge", "--config", dict(TINY_CONFIG, out_dir=7)),
    ("cell-k", "--profile", {"b0": 1.0}),
    ("cell-k", "--profile", {"dim": 1, "b0": 1.0, "modes": [{"re": 0.5}]}),
    ("limit-spec", "--bc", "int", "--K", "5"),
    ("limit-spec", "--bc", "dir", "--K", "0"),
], ids=["eps-count-0", "eps-count-21", "limit-count-0", "limit-modes-neg",
        "limit-k-neg", "cell-cutoff-neg", "eps-zero", "alpha-nan",
        "limit-k-nan", "limit-k-inf", "converge-eps-zero",
        "converge-alpha-nan", "converge-count-21", "converge-unknown-key",
        "converge-count-str", "converge-eps-scalar", "converge-list",
        "converge-count-float", "converge-missing-profile",
        "converge-cutoff-float", "converge-n-elements-1d-float",
        "converge-epp-float", "converge-n-layer-neg",
        "converge-eps-empty", "converge-alphas-empty",
        "converge-eps-repeated", "converge-profile-path-list",
        "converge-out-dir-int",
        "profile-no-dim", "profile-mode-no-k", "limit-int-k-number",
        "limit-dir-k-zero"])
def test_out_of_range_input_exits_2(capsys, tmp_path, argv):
    # rejected before any solve, with one line on stderr and nothing printed;
    # a dict or list stands for a JSON file (SweepConfig or profile)
    # holding it
    path = tmp_path / "input.json"
    for arg in argv:
        if isinstance(arg, (dict, list)):
            path.write_text(json.dumps(arg))
    argv = [str(path) if isinstance(arg, (dict, list)) else arg
            for arg in argv]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")
    assert not stdout


def test_cell_k_cutoff_that_leaves_a_negative_profile_exits_2(capsys,
                                                              tmp_path):
    # b = 0.8 + cos 2 pi y + 0.3 cos 4 pi y is non-negative (min 0.1); its
    # modes |k| <= 1 alone, 0.8 + cos 2 pi y, are not
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"dim": 1, "b0": 0.8, "modes": [
        {"k": [1], "re": 0.5}, {"k": [-1], "re": 0.5},
        {"k": [2], "re": 0.15}, {"k": [-2], "re": 0.15}]}))
    code, _, _ = run_cli(capsys, "cell-k", "--profile", str(path))
    assert code == 0
    code, stdout, err = run_cli(capsys, "cell-k", "--profile", str(path),
                                "--cutoff", "1")
    assert code == 2 and not stdout
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")
    assert "cutoff 1" in lines[0] and "negative" in lines[0]


def test_converge_with_config(capsys, tmp_path):
    cfg = {"alphas": [2.0], "eps_values": [0.25], "count": 1,
           "cutoff": 1, "elements_per_period": 4, "n_elements_1d": 32}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, "converge", "--config", str(cfg_path),
                              "--out", str(out))
    assert code == 0
    assert "strange sign: flipped" in stdout
    assert (out / "convergence.csv").exists()


def test_converge_bad_config_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "converge", "--config",
                           str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_exit_codes(capsys, monkeypatch):
    outcomes = {"passed": True}

    def fake_verify(level, log=None):
        return {"level": level, "passed": outcomes["passed"], "checks": []}

    monkeypatch.setattr(cli, "run_verify", fake_verify)
    code, stdout, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 0
    assert json.loads(stdout.splitlines()[-1])["passed"] is True
    outcomes["passed"] = False
    code, stdout, _ = run_cli(capsys, "verify")
    assert code == 1


def test_verify_rejects_unknown_level(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--level", "paranoid"])
    assert exc.value.code == 2

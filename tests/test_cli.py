"""Command-line verbs, exit codes, and output files (all invoked
in-process through main)."""

import json

import numpy as np
import pytest

from trihomog import cli


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
    data = json.loads(out.read_text())
    assert data["alpha"] == 2.0 and data["eps"] == 0.25


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
], ids=["eps-count-0", "eps-count-21", "limit-count-0", "limit-modes-neg",
        "limit-k-neg", "cell-cutoff-neg"])
def test_out_of_range_input_exits_2(capsys, argv):
    # rejected before any solve, with one line on stderr and nothing printed
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")
    assert not stdout


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

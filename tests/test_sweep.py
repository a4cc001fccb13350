"""Sweep orchestration: config handling, table determinism, classification
coherence, and the verification suite."""

import json

import numpy as np
import pytest

from trihomog import sweep
from trihomog.sweep import (REGIME_DIRICHLET, REGIME_INTERMEDIATE,
                            REGIME_STRANGE, ConvergenceTable, SweepConfig,
                            SweepError, config_from_dict, default_profile,
                            load_config, predicted_regime, run_cell_k,
                            run_converge, run_verify)

TINY = dict(alphas=(2.0,), eps_values=(1 / 4,), count=1, cutoff=2,
            elements_per_period=4, n_elements_1d=32)


@pytest.fixture(scope="module")
def tiny_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    table = run_converge(SweepConfig(**TINY), out_dir=str(out))
    return table, out


def test_config_validation():
    with pytest.raises(SweepError):
        SweepConfig(count=0)
    with pytest.raises(SweepError):
        SweepConfig(alphas=(2.0, -1.0))
    with pytest.raises(SweepError):
        SweepConfig(eps_values=(0.3,))


def test_config_roundtrip(tmp_path):
    data = {"alphas": [1.5, 2.0], "eps_values": [0.25, 0.125], "count": 2}
    cfg = config_from_dict(data)
    assert cfg.alphas == (1.5, 2.0)
    assert cfg.count == 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert load_config(str(path)) == cfg


def test_predicted_regime():
    profile = default_profile()
    assert predicted_regime(2.0, profile) == REGIME_INTERMEDIATE
    assert predicted_regime(1.5, profile) == REGIME_STRANGE
    assert predicted_regime(1.0, profile) == REGIME_DIRICHLET
    from trihomog.oscillation import OscillationProfile
    flat = OscillationProfile(1, {(0,): 1.0})
    for alpha in (1.0, 1.5, 2.0):
        assert predicted_regime(alpha, flat) == REGIME_INTERMEDIATE


def test_table_row_contract():
    table = ConvergenceTable()
    with pytest.raises(SweepError):
        table.add_row(alpha=1.0, eps=0.25)      # missing columns
    assert table.classification(1.0) is None


def test_run_cell_k_default_profile():
    report, agreed = run_cell_k(default_profile())
    assert agreed
    assert abs(report.k_energy - 20.0 * np.pi ** 3) < 1e-9


def test_converge_outputs_and_adjudication(tiny_table):
    table, out = tiny_table
    assert (out / "convergence.csv").exists()
    assert (out / "convergence.json").exists()
    assert (out / "k_report.json").exists()
    assert (out / "cases" / "eps_a2_n4.json").exists()
    # the +K variant must win the sign adjudication with real distances
    assert table.strange_sign == "flipped"
    d = table.sign_distances
    assert 0.0 < d["d_hat_flipped_sign"] < d["d_hat_literal_sign"]
    assert d["d_hat_literal_sign"] > 1e10    # literal -K ran away


def test_converge_rows_are_coherent(tiny_table):
    table, _ = tiny_table
    assert len(table.rows) == 1
    row = table.rows[0]
    dists = {REGIME_INTERMEDIATE: row["d_int"],
             REGIME_STRANGE: row["d_hat"],
             REGIME_DIRICHLET: row["d_dir"]}
    assert row["classified_regime"] == min(dists, key=dists.get)
    assert row["predicted_regime"] == REGIME_INTERMEDIATE
    assert np.isfinite(row["lambda_eps"])
    for name in ("d_int", "d_hat", "d_dir"):
        assert abs(row[name]
                   - abs(row["lambda_eps"]
                         - row["lambda_" + name[2:]])) < 1e-9
    assert table.classification(2.0, 0) == row["classified_regime"]


def test_converge_csv_is_deterministic(tiny_table):
    table, out = tiny_table
    rerun = run_converge(SweepConfig(**TINY), out_dir=None)
    assert rerun.to_csv_text() == (out / "convergence.csv").read_text()


def test_converge_without_out_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_converge(SweepConfig(**TINY), out_dir=None)
    assert list(tmp_path.iterdir()) == []


def test_case_json_contents(tiny_table):
    table, out = tiny_table
    data = json.loads((out / "cases" / "eps_a2_n4.json").read_text())
    assert data["alpha"] == 2.0
    assert data["eps"] == 0.25
    assert abs(data["eigs"][0] - table.rows[0]["lambda_eps"]) < 1e-9


def test_verify_level_validation():
    with pytest.raises(SweepError):
        run_verify("paranoid")


def test_verify_fast_passes(monkeypatch):
    # the flat-limit check vouches for the eps path that eps-spec and
    # converge run, solve_eps_spectrum_bloch
    calls = []
    real = sweep.solve_eps_spectrum_bloch

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "solve_eps_spectrum_bloch", counted)
    report = run_verify("fast")
    names = [c["name"] for c in report["checks"]]
    assert names == ["profile-bounds", "cell-k", "chain3", "hermite",
                     "limit1d", "numerics", "epsdomain-flat-limit"]
    failing = [c for c in report["checks"] if not c["passed"]]
    assert report["passed"] and not failing, failing
    assert len(calls) == 1

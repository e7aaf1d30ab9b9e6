import csv
import json

import numpy as np
import pytest

from softid import model_io, presets
from softid.cli import main
from softid.dynamics import inverse_dynamics, mid


@pytest.fixture()
def pcc_file(tmp_path):
    path = tmp_path / "pcc2.json"
    doc = presets.pcc_description(2, order=(2, 8, 5))
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def pendulum_file(tmp_path):
    path = tmp_path / "pendulum.json"
    path.write_text(json.dumps(presets.rigid_pendulum_description()))
    return path


def test_validate_ok(pcc_file, capsys):
    assert main(["validate", str(pcc_file)]) == 0
    out = capsys.readouterr().out
    assert "n = 6, 2 bodies" in out


def test_validate_missing_anchor_field(tmp_path, capsys):
    doc = presets.pcc_description(1)
    doc["links"][0]["body"]["anchors"] = {"x_j": [0, 0, 0.3]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "x_a" in capsys.readouterr().err


def test_validate_non_orthogonal_anchors(tmp_path, capsys):
    doc = presets.pcc_description(1)
    doc["links"][0]["body"]["anchors"] = {
        "x_j": [0, 0, 0.3], "x_a": [0.005, 0, 0.3], "x_b": [0.005, 0.002, 0.3],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "rigid-contact-area" in capsys.readouterr().err


def test_eval_iid_zero_state(pcc_file, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"q": [0.0] * 6}))
    out = tmp_path / "result.json"
    assert main(["eval", "--algorithm", "iid", "--state", str(state),
                 "-o", str(out), str(pcc_file)]) == 0
    payload = json.loads(out.read_text())
    assert np.abs(np.array(payload["force"])).max() < 1e-12
    assert "mass_matrix" not in payload


def test_eval_miid_outputs_mass(pcc_file, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"q": [0.1] * 6, "qd": [0.0] * 6, "qdd": [0.0] * 6}))
    out = tmp_path / "result.json"
    assert main(["eval", "--algorithm", "miid", "--state", str(state),
                 "-o", str(out), str(pcc_file)]) == 0
    payload = json.loads(out.read_text())
    M = np.array(payload["mass_matrix"])
    assert M.shape == (6, 6)
    assert np.abs(M - M.T).max() < 1e-9 * np.abs(M).max()


@pytest.mark.parametrize("algorithm", ["id", "mid"])
def test_eval_matches_library(algorithm, pcc_file, tmp_path):
    q, qd, qdd = [0.2, -0.1, 0.01, 0.3, 0.2, -0.02], [0.5, -1.0, 0.1, 0.3, 0.2, 0.0], [1.0] * 6
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"q": q, "qd": qd, "qdd": qdd}))
    out = tmp_path / "result.json"
    assert main(["eval", "--algorithm", algorithm, "--state", str(state),
                 "-o", str(out), str(pcc_file)]) == 0
    payload = json.loads(out.read_text())
    chain = model_io.load_chain(pcc_file)
    if algorithm == "id":
        force, mass = inverse_dynamics(chain, q, qd, qdd), None
        assert "mass_matrix" not in payload
    else:
        res = mid(chain, q, qd, qdd)
        force, mass = res.force, res.mass
        assert np.array_equal(np.array(payload["mass_matrix"]), mass)
    assert np.array_equal(np.array(payload["force"]), force)


def test_eval_dimension_mismatch(pcc_file, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"q": [0.0, 0.0]}))
    assert main(["eval", "--algorithm", "iid", "--state", str(state), str(pcc_file)]) == 2


BAD_STATES = {
    "list": "[0.5]",
    "non_numeric": '{"q": ["up"]}',
    "nan": '{"q": [NaN]}',
    "infinite": '{"q": [Infinity]}',
    "boolean": '{"q": [true]}',
    "nested": '{"q": [[0.5]]}',
    "huge_integer": '{"q": [1' + "0" * 400 + ']}',
    "null_field": '{"q": null}',
    "not_json": "q = 0.5",
}


@pytest.mark.parametrize("command", ["eval", "simulate", "statics"])
@pytest.mark.parametrize("kind", sorted(BAD_STATES))
def test_bad_state_file_exits_2(command, kind, pendulum_file, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(BAD_STATES[kind])
    extra = ["--algorithm", "iid"] if command == "eval" else []
    argv = [command, *extra, "--state", str(state), "-o", str(tmp_path / "out"), str(pendulum_file)]
    assert main(argv) == 2
    assert "state" in capsys.readouterr().err


def test_verify_passes_on_pendulum(pendulum_file, capsys):
    assert main(["verify", "--trials", "4", str(pendulum_file)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_rejects_zero_trials(pendulum_file):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--trials", "0", str(pendulum_file)])
    assert exit_.value.code == 2


def test_verify_rejects_large_models(tmp_path, capsys):
    doc = presets.pcc_description(9)  # 27 dof > 24
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "n <= 24" in capsys.readouterr().err


def test_simulate_writes_csv(pendulum_file, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--t-end", "0.05", "--dt", "1e-3",
                 "-o", str(out), str(pendulum_file)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["t", "q0"]
    assert len(rows) == 52  # header + 51 samples
    energies = [float(r[-3]) + float(r[-2]) for r in rows[1:]]
    assert np.ptp(energies) < 1e-6 * max(1.0, abs(energies[0]))


def test_statics_pendulum(pendulum_file, tmp_path):
    out = tmp_path / "eq.json"
    state = tmp_path / "guess.json"
    state.write_text(json.dumps({"q": [2.5]}))
    assert main(["statics", "--state", str(state), "-o", str(out), str(pendulum_file)]) == 0
    payload = json.loads(out.read_text())
    assert payload["converged"]
    assert abs(abs(payload["q_eq"][0]) - np.pi) < 1e-6


def test_statics_unevaluable_guess_exits_nonconvergence(tmp_path):
    model = tmp_path / "lvp.json"
    model.write_text(json.dumps(presets.lvp_description()))
    state = tmp_path / "guess.json"
    state.write_text(json.dumps({"q": [0.0, 3.0, 0.0]}))  # past the LVP bending fold
    out = tmp_path / "eq.json"
    assert main(["statics", "--state", str(state), "-o", str(out), str(model)]) == 4
    payload = json.loads(out.read_text())
    assert not payload["converged"] and payload["iterations"] == 0


def test_benchmark_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--sizes", "1,2", "--trials", "10",
                 "-o", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n_bodies"
    assert len(rows) == 3
    assert float(rows[1][6]) < 1e-6  # rel_diff_mean at N=1


def test_quadrature_order_override(pcc_file, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"q": [0.2] * 6, "qd": [1.0] * 6, "qdd": [0.0] * 6}))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eval", "--algorithm", "iid", "--state", str(state),
                 "-o", str(out1), str(pcc_file)]) == 0
    assert main(["eval", "--algorithm", "iid", "--state", str(state),
                 "--quadrature-order", "3", "10", "8",
                 "-o", str(out2), str(pcc_file)]) == 0
    f1 = np.array(json.loads(out1.read_text())["force"])
    f2 = np.array(json.loads(out2.read_text())["force"])
    assert np.abs(f1 - f2).max() < 1e-4 * np.abs(f1).max()
    assert np.any(f1 != f2)


def test_bad_quadrature_order_exits_2(pcc_file, tmp_path, capsys):
    doc = json.loads(pcc_file.read_text())
    doc["links"][0]["body"]["quadrature_order"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "quadrature_order" in capsys.readouterr().err
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"q": [0.0] * 6}))
    assert main(["eval", "--quadrature-order", "3", "4", "--algorithm", "iid",
                 "--state", str(state), str(pcc_file)]) == 2
    assert "quadrature_order" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        main(["validate", "--quadrature-order", "3.5", str(pcc_file)])
    assert exit_.value.code == 2


@pytest.mark.parametrize("argv", [
    ["validate", "--seed", "1", "MODEL"],
    ["eval", "--seed", "1", "--algorithm", "iid", "--state", "s.json", "MODEL"],
    ["simulate", "--seed", "1", "MODEL"],
    ["statics", "--seed", "1", "MODEL"],
    ["validate", "-o", "out.txt", "MODEL"],
    ["verify", "-o", "out.txt", "MODEL"],
    ["benchmark", "--quadrature-order", "4"],
], ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_unread_flag_exits_2(argv, pcc_file):
    # each command accepts only the flags it reads
    with pytest.raises(SystemExit) as exit_:
        main([str(pcc_file) if a == "MODEL" else a for a in argv])
    assert exit_.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-end", "-1", "MODEL"],
    ["simulate", "--t-end", "inf", "MODEL"],
    ["simulate", "--dt", "0", "MODEL"],
    ["simulate", "--dt", "nan", "MODEL"],
    ["simulate", "--dt", "-1e-3", "MODEL"],
    ["verify", "--trials", "-2", "MODEL"],
    ["statics", "--tol", "-1", "MODEL"],
    ["statics", "--tol", "nan", "MODEL"],
    ["benchmark", "--trials", "3"],
    ["benchmark", "--sizes", "a"],
    ["benchmark", "--sizes", "2,0"],
], ids=lambda argv: "".join(argv[:3]))
def test_out_of_range_number_exits_2(argv, pendulum_file, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([str(pendulum_file) if a == "MODEL" else a for a in argv])
    assert exit_.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_missing_model_file(capsys):
    assert main(["validate", "/nonexistent/model.json"]) == 2


def test_seed_determinism(pendulum_file, capsys):
    assert main(["verify", "--trials", "4", "--seed", "7", str(pendulum_file)]) == 0
    out1 = capsys.readouterr().out
    assert main(["verify", "--trials", "4", "--seed", "7", str(pendulum_file)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2

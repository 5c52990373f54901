"""End-to-end CLI behaviour through main()."""

import json
import os
import subprocess
import sys

import pytest

from otpsense import cli
from otpsense.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_subset_gen_worked_example(capsys):
    code, out, err = run_cli(capsys, "subset-gen", "--channels", "4", "--phi", "2",
                             "--seed", "0")
    assert code == 0 and err == ""
    lines = out.splitlines()
    meta = {l.split(": ")[0][2:]: l.split(": ")[1] for l in lines if l.startswith("#")}
    assert meta["size"] == "4" and meta["block_length"] == "2"
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "index,pad"
    pads = [l.split(",")[1] for l in body[1:]]
    assert len(pads) == 4 and len(set(pads)) == 4
    assert all(len(p) == 4 for p in pads)
    # complement closure visible in the printed strings
    flip = {"0": "1", "1": "0"}
    for p in pads:
        assert "".join(flip[c] for c in p) in pads


def test_subset_gen_row_cap(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "subset-gen", "--channels", "16", "--phi", "1")
    assert code == 0 and err == ""
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(body) == 1 + cli.MAX_SUBSET_ROWS == 1 + 65536
    # 17 one-bit blocks are refused before a pad is listed
    monkeypatch.setattr(cli.protocol.PadSubset, "pads", None)
    code, out, err = run_cli(capsys, "subset-gen", "--channels", "17", "--phi", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "131072 pads" in err
    # so is a pair subset past the cap, before any pair is drawn
    monkeypatch.setattr(cli.protocol, "generate_pairs", None)
    code, out, err = run_cli(capsys, "subset-gen", "--channels", "100", "--pairs", "32769")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "65538 pads" in err


def test_subset_gen_requires_one_construction(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["subset-gen", "--channels", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["subset-gen", "--channels", "4", "--phi", "2", "--pairs", "1"])
    assert exc.value.code == 2


def test_predict_forward_frozen(capsys):
    code, out, err = run_cli(capsys, "predict", "--phi", "5", "--eta", "0.82")
    assert code == 0
    row = [l for l in out.splitlines() if not l.startswith("#")][1]
    phi, eta, rate = row.split(",")
    assert phi == "5" and eta == "0.82"
    assert float(rate) == pytest.approx(0.9562926592, abs=1e-10)


def test_predict_invert_frozen(capsys):
    code, out, _ = run_cli(capsys, "predict", "--p-target", "0.999", "--eta", "0.82",
                           "--format", "json-lines")
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[0])["metadata"]["command"] == "predict"
    assert json.loads(lines[1])["block_length"] == 19


def test_predict_rejects_coin_eta(capsys):
    code, out, err = run_cli(capsys, "predict", "--p-target", "0.999", "--eta", "0.5")
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_mask_level_closed_subset(capsys):
    code, out, _ = run_cli(capsys, "mask-level", "--channels", "6", "--phi", "3",
                           "--senders", "2", "--format", "json-lines")
    assert code == 0
    lines = out.strip().split("\n")
    rows = [json.loads(l) for l in lines[1:]]
    assert len(rows) == 6
    for row in rows:
        assert row["joint_mi"] == 0.0
        assert row["sender0_mi"] == 0.0 and row["sender1_mi"] == 0.0
        assert row["xi"] == 0.5


def test_mask_level_many_identical_senders(capsys):
    code, out, _ = run_cli(capsys, "mask-level", "--channels", "6", "--phi", "3",
                           "--senders", "64", "--format", "json-lines")
    assert code == 0
    rows = [json.loads(l) for l in out.strip().split("\n")[1:]]
    assert len(rows) == 6 and all(len(row) == 3 + 64 for row in rows)
    assert all(row["joint_mi"] == 0.0 for row in rows)


def test_mask_level_on_many_blocks(capsys):
    # 20 blocks, 2**20 pads: leakage reads the subset's per-channel xi only
    code, out, err = run_cli(capsys, "mask-level", "--channels", "100", "--phi", "5",
                             "--format", "json-lines")
    assert code == 0 and err == ""
    rows = [json.loads(l) for l in out.strip().split("\n")[1:]]
    assert len(rows) == 100
    assert all(row["joint_mi"] == 0.0 and row["xi"] == 0.5 for row in rows)


@pytest.mark.parametrize("senders", ["0", "-1"])
def test_mask_level_rejects_bad_sender_counts(capsys, senders):
    code, out, err = run_cli(capsys, "mask-level", "--channels", "6", "--phi", "3",
                             "--senders", senders)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"got {senders}" in err


def test_mask_level_table_cap(capsys, monkeypatch):
    senders = cli.MAX_MASK_CELLS // 8
    code, out, _ = run_cli(capsys, "mask-level", "--channels", "8", "--phi", "4",
                           "--senders", str(senders))
    assert code == 0
    rows = [line for line in out.strip().split("\n") if not line.startswith("#")]
    assert len(rows) == 1 + 8 and all(len(row.split(",")) == 3 + senders for row in rows)
    # one cell past the cap is refused before any work
    monkeypatch.setattr(cli.leakage, "leakage_report", None)
    code, out, err = run_cli(capsys, "mask-level", "--channels", "8", "--phi", "4",
                             "--senders", str(senders + 1))
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"--senders {senders + 1}" in err


def test_simulate_roundtrip(tmp_path, capsys):
    cfg = {
        "num_channels": 10,
        "rounds": 6,
        "seed": 5,
        "pairs": 1,
        "users": [{"role": "honest"}, {"role": "honest"}, {"role": "honest"}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "result.csv"
    code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                             "--out", str(out_path))
    assert code == 0 and err == ""
    assert out == ""  # --out suppresses stdout
    text = out_path.read_text()
    assert "# config_hash: " in text
    assert "false_positive_rate" in text
    # reruns are byte-identical
    code, _, _ = run_cli(capsys, "simulate", "--config", str(path),
                         "--out", str(out_path))
    assert out_path.read_text() == text


def test_simulate_seed_override_changes_hash(tmp_path, capsys):
    cfg = {"num_channels": 8, "rounds": 4, "seed": 1,
           "users": [{"role": "honest"}, {"role": "honest"}, {"role": "honest"}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    _, base, _ = run_cli(capsys, "simulate", "--config", str(path))
    _, overridden, _ = run_cli(capsys, "simulate", "--config", str(path),
                               "--seed", "2")
    assert base != overridden
    assert "# seed: 2" in overridden


@pytest.mark.parametrize("argv, config_seed", [
    (["simulate", "--seed", "-1"], 1),
    (["simulate"], -1),
    (["experiment", "--seed", "-1"], 1),
    (["experiment"], -1),
    (["subset-gen", "--channels", "8", "--phi", "2", "--seed", "-1"], None),
    (["mask-level", "--channels", "8", "--phi", "2", "--seed", "-1"], None),
])
def test_a_negative_seed_is_named_on_every_path(tmp_path, capsys, engine_chunks, argv,
                                                config_seed):
    if config_seed is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_channels": 8, "rounds": 2, "seed": config_seed,
                                    "sweep": [{"param": "pairs", "values": [1]}]}))
        argv = argv + ["--config", str(path)]
    # an error line and exit 1 from main, not an exception, and no round run
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and engine_chunks == []
    assert err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_seed_override_still_checks_the_config(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": "x", "sweep": [{"param": "pairs", "values": [1]}]}))
    code, out, err = run_cli(capsys, command, "--config", str(path), "--seed", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "seed" in err


def test_experiment_rejects_a_bad_sweep_point_before_any_round(tmp_path, capsys, engine_chunks):
    cfg = {"rate_on": [50.0] * 8, "rounds": 3000, "num_channels": 8,
           "sweep": [{"param": "channels", "values": [8, 4]}]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "rate_on" in err
    assert engine_chunks == []
    # positive control: the same sweep over valid points reaches the engine
    cfg["sweep"] = [{"param": "channels", "values": [8, 8]}]
    cfg["rounds"] = 3
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path))
    assert code == 0, err
    assert sum(engine_chunks) == 2 * 3


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bandwidth": 10}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1 and "bandwidth" in err


def test_simulate_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1 and "not valid JSON" in err


def test_simulate_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "none.json"))
    assert code == 1 and err.startswith("error:")


def test_experiment_sweep(tmp_path, capsys):
    cfg = {
        "num_channels": 8,
        "rounds": 4,
        "seed": 3,
        "users": [{"role": "honest"}, {"role": "honest"}, {"role": "honest"}],
        "sweep": [{"param": "pairs", "values": [1, 2, 4]}],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--config", str(path),
                             "--format", "json-lines")
    assert code == 0, err
    lines = out.strip().split("\n")
    rows = [json.loads(l) for l in lines[1:]]
    assert [r["pairs"] for r in rows] == [1, 2, 4]
    assert [r["point"] for r in rows] == [0, 1, 2]


def test_experiment_requires_sweep_entry(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"rounds": 3,
                                "users": [{"role": "honest"}, {"role": "honest"},
                                          {"role": "honest"}]}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path))
    assert code == 1 and "sweep" in err


def _honest(n):
    return [{"role": "honest"}] * n


@pytest.mark.parametrize("cfg,word", [
    ({"rounds": "10"}, "rounds"),
    ({"users": [{"role": "honest", "miss": "low"}]}, "miss"),
    ({"users": _honest(3), "fusion_threshold": 4}, "fusion_threshold"),
    ({"users": [{"false_alarm": float("nan")}]}, "false_alarm"),
    ({"rate_on": float("nan")}, "rates"),
    ({"slot_period": float("inf")}, "slot_period"),
    ({"omega": float("inf")}, "omega"),
    ({"omega": 0.5}, "omega"),
])
def test_simulate_rejects_bad_config_values(tmp_path, capsys, engine_chunks, cfg, word):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and word in err and "Traceback" not in err
    assert engine_chunks == []


@pytest.mark.parametrize("param,values", [
    ("phi", [2.5, 3]),
    ("channels", [float("inf")]),
    ("pairs", [1, 2.0]),
    ("rounds", [3, float("nan")]),
    ("selfish", [0.5]),
])
def test_experiment_rejects_non_integer_sweep_values(tmp_path, capsys, engine_chunks, param,
                                                     values):
    # json.dumps writes inf and nan as Infinity and NaN, which json.load reads back
    cfg = {"num_channels": 8, "rounds": 3, "users": _honest(3),
           "sweep": [{"param": param, "values": values}]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and param in err and "Traceback" not in err
    assert engine_chunks == []


def test_huge_finite_omega_widens_blocks_to_the_whole_band(tmp_path, capsys, engine_chunks):
    code, out, err = run_cli(capsys, "subset-gen", "--channels", "5", "--phi", "3",
                             "--omega", "1e308")
    assert code == 0 and err == ""
    meta = {l.split(": ")[0][2:]: l.split(": ")[1] for l in out.splitlines() if l.startswith("#")}
    assert meta["block_length"] == "5" and meta["size"] == "2"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"num_channels": 8, "rounds": 2, "users": _honest(3), "pairs": None,
                                "phi": 3, "omega": 1e308}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0 and out, err
    assert engine_chunks == [2]


def test_simulate_on_a_valid_config_reaches_the_round_engine(tmp_path, capsys, engine_chunks):
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"num_channels": 8, "rounds": 5, "users": _honest(3)}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0 and out, err
    assert sum(engine_chunks) == 5


@pytest.mark.parametrize("flag,config_workers", [("0", None), ("-3", None), (None, 0)])
def test_experiment_rejects_workers_below_one(tmp_path, capsys, flag, config_workers):
    cfg = {"num_channels": 8, "rounds": 2, "users": _honest(3),
           "sweep": [{"param": "pairs", "values": [1, 2]}]}
    if config_workers is not None:
        cfg["workers"] = config_workers
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    argv = ["experiment", "--config", str(path)]
    if flag is not None:
        argv += ["--workers", flag]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "workers" in err


def test_experiment_stdout_is_byte_identical_at_any_worker_count(tmp_path):
    # in a subprocess writing to stdout, so a forked worker that flushed the
    # stdio buffers it inherited would show as repeated bytes
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "num_channels": 16, "rounds": 6, "seed": 4, "users": _honest(4),
        "sweep": [{"param": "pairs", "values": [1, 2, 4]}, {"param": "selfish", "values": [0, 1]}],
    }))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    outs = [
        subprocess.run([sys.executable, "-m", "otpsense.cli", "experiment", "--config", str(path),
                        "--format", "json-lines", "--workers", workers],
                       capture_output=True, check=True, env=env, timeout=120).stdout
        for workers in ("1", "2", "3", "8")
    ]
    assert len(outs[0].splitlines()) == 7
    assert outs[1] == outs[0] and outs[2] == outs[0] and outs[3] == outs[0]


@pytest.mark.parametrize("argv", [
    ("predict", "--phi", "3", "--eta", "nan"),
    ("predict", "--p-target", "0.9", "--eta", "nan"),
    ("mask-level", "--channels", "6", "--phi", "3", "--pf", "nan"),
    ("mask-level", "--channels", "6", "--phi", "3", "--pm", "inf"),
    ("mask-level", "--channels", "6", "--phi", "3", "--p1", "nan"),
    ("subset-gen", "--channels", "10", "--phi", "3", "--omega", "inf"),
    ("subset-gen", "--channels", "10", "--phi", "3", "--omega", "nan"),
    ("subset-gen", "--channels", "10", "--phi", "3", "--omega", "0.5"),
    # omega is checked whatever the construction
    ("subset-gen", "--channels", "6", "--pairs", "1", "--omega", "0.5"),
    ("subset-gen", "--channels", "6", "--pairs", "1", "--omega", "nan"),
    ("subset-gen", "--channels", "6", "--pairs", "3", "--omega", "0.5"),
    ("subset-gen", "--channels", "6", "--pairs", "3", "--omega", "inf"),
    ("mask-level", "--channels", "6", "--pairs", "3", "--omega", "nan"),
])
def test_rejects_non_finite_and_out_of_range_numbers(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err

"""Tests of the benchmark itself (not of the package):

    python -m pytest perfbench/tests
"""

import dataclasses
import importlib
from fractions import Fraction

import numpy as np
import pytest

import exact
import ops
import tracing
import worker
from otpsense import predict_success_rate


def _module_dicts() -> dict:
    names = {module for module, _ in tracing.WRAPPED}
    return {name: dict(vars(importlib.import_module(f"otpsense.{name}"))) for name in names}


def test_tracer_restores_every_module_attribute():
    before = _module_dicts()
    attack = ops.Attack(5)
    with pytest.raises(RuntimeError, match="leave the block"):
        with tracing.Tracer() as tracer:
            assert ops.simulate.run_simulation is not before["simulate"]["run_simulation"]
            tracer.op(1, attack.run, attack.inputs(1))
            raise RuntimeError("leave the block")
    after = _module_dicts()
    assert after.keys() == before.keys()
    for name, saved in before.items():
        assert after[name].keys() == saved.keys()
        assert all(after[name][key] is value for key, value in saved.items()), name


def test_tracer_counts_history_recoveries_under_adversary():
    attack = ops.Attack(5)
    with tracing.Tracer() as tracer:
        tracer.op(1, attack.run, attack.inputs(1))
    layers = tracer.layers()
    rounds = attack.rounds
    assert layers["adversary.history_act"]["calls"] == rounds // 2  # odd rounds only
    assert layers["adversary.recover_pad"]["calls"] == rounds // 2
    # 4 honest receivers, each recovering the 6 other users' pads
    assert layers["protocol.recover_pad"]["calls"] == 4 * 6 * rounds
    assert layers["adversary.pes_act"]["calls"] == tracer.attempts["adversary.pes_act"] == rounds
    assert 0 < tracer.hits["protocol.recover_pad"] <= tracer.attempts["protocol.recover_pad"]
    op_span = layers[tracing.OP]
    assert op_span["calls"] == 1
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1])


def test_wrong_mesh_recovery_rate_counts_as_failed(monkeypatch):
    mesh = ops.Mesh(3)
    assert worker.measure(mesh, 0, first=1, min_ops=1)["failed"] == 0
    honest = mesh.run
    monkeypatch.setattr(mesh, "run", lambda sc: dataclasses.replace(honest(sc), honest_recovery_rate=0.5))
    result = worker.measure(mesh, 0, first=1, min_ops=2)
    assert result["failed"] == 2 and len(result["op_s"]) == 2
    assert "honest recovery rate 0.5" in result["problems"][0]


def test_raising_op_counts_as_failed(monkeypatch):
    leakage = ops.Leakage(3)

    def broken(subset):
        raise ValueError("boom")

    monkeypatch.setattr(leakage, "run", broken)
    result = worker.measure(leakage, 0, first=1, min_ops=3)
    assert result["failed"] == 3 and "ValueError: boom" in result["problems"][0]


def test_attack_and_sweep_checks_reject_wrong_results():
    attack = ops.Attack(4)
    sc = attack.inputs(1)
    summary = attack.run(sc)
    assert attack.check(sc, summary) == []
    guessing = {**summary.attacker_success, attack.EES: 0.5}
    assert attack.check(sc, dataclasses.replace(summary, attacker_success=guessing))

    sweep = ops.Sweep(4)
    text = '{"metadata": {}}\n' + "{}\n" * 15
    assert sweep.check(None, text) == ["15 rows, expected 16"]


def test_leakage_once_per_run_check_passes():
    assert ops.Leakage(6).run_check() == []


@pytest.mark.parametrize("cls", [ops.Mesh, ops.Attack])
def test_same_seed_gives_identical_rows(cls):
    a, b, other = cls(7), cls(7), cls(8)
    assert a.run(a.inputs(1)).row() == b.run(b.inputs(1)).row()
    assert a.inputs(1) != other.inputs(1)


def test_sweep_and_leakage_inputs_follow_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "OUT", tmp_path)
    assert ops.Sweep(7).config(2) == ops.Sweep(7).config(2) != ops.Sweep(8).config(2)
    same = [ops.Leakage(7).inputs(2).pads for _ in range(2)]
    assert np.array_equal(*same)
    assert not np.array_equal(same[0], ops.Leakage(8).inputs(2).pads)
    texts = []
    for _ in range(2):
        sweep = ops.Sweep(7, in_process=True)
        path = sweep.inputs(1)
        texts.append(sweep.run(path))
        assert sweep.check(path, texts[-1]) == []
        sweep.close()
    assert texts[0] == texts[1]


def test_laws_match_the_closed_forms():
    err = Fraction(1, 10)
    eta = float(err**2 + (1 - err) ** 2)
    one, mean, _ = exact.pad_moments(ops.WIDTH, ops.BLOCKS, err, 2)
    assert one == 1
    assert float(mean) == pytest.approx(predict_success_rate(ops.WIDTH, eta) ** ops.BLOCKS, abs=1e-12)
    pmf = exact.round_recoveries_pmf(3, ops.WIDTH, ops.BLOCKS, err)
    assert sum(pmf) == pytest.approx(1, abs=1e-12)
    assert sum(k * p for k, p in enumerate(pmf)) == pytest.approx(3 * float(mean), abs=1e-12)
    assert exact.binomial_pmf(4, Fraction(1, 2)) == [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16]


def test_mesh_band_covers_one_senders_exact_tail():
    """MESH_Z holds the exact 1e-9 quantiles of one sender's count, whose
    tail is heavier than the pooled mesh rate's."""
    err, receivers, rounds = Fraction(1, 10), len(ops.Mesh.users) - 1, ops.Mesh.rounds
    _, p, q2 = (float(m) for m in exact.pad_moments(ops.WIDTH, ops.BLOCKS, err, 2))
    n = receivers * rounds
    sd = ((receivers * p * (1 - p) + receivers * (receivers - 1) * (q2 - p * p)) * rounds) ** 0.5
    law = exact.sum_of_iid(exact.round_recoveries_pmf(receivers, ops.WIDTH, ops.BLOCKS, err), rounds)
    lowest = min(k for k in range(n + 1) if exact.consistent(law, k))
    assert p * n - lowest < exact.MESH_Z * sd

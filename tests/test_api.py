"""The package's public names, and the names and results the benchmark's tracer sees."""

import importlib
import importlib.util
import json
from pathlib import Path

import otpsense
from otpsense import simulate
from otpsense.simulate import Scenario, UserSpec

PUBLIC = {
    "AttackOutcome", "ChannelModel", "DetectorProfile", "FusionRule", "LeakageReport",
    "PadSubset", "Scenario", "SensingMetrics", "SimulationSummary", "UserSpec",
    "agreement_probability", "apply_sweep", "build_subset", "decrypt", "ees_act",
    "ees_decode_attempt", "encrypt_report", "fuse", "generate_pairs", "generate_subset",
    "history_act", "invert_success_rate", "joint_masking_level", "leakage_report",
    "masking_level", "persistence", "pes_act", "predict_success_rate", "recover_pad",
    "recover_pads", "run_experiment", "run_simulation", "sample_states",
    "scenario_from_dict", "scenario_to_dict", "score", "sense", "stationary_occupancy",
    "xi_profile",
}


def test_public_names_are_exactly_the_pinned_set():
    assert len(otpsense.__all__) == len(set(otpsense.__all__))
    assert set(otpsense.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(otpsense, name) is not None, name


def load_tracing():
    """perfbench/tracing.py, loaded by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_benchmark_tracer_wraps_still_exists():
    # perfbench/tracing.py replaces these functions by name; one that is
    # gone would stop the benchmark, not a test under tests/
    tracing = load_tracing()
    assert tracing.WRAPPED
    for module_name, fn_name in tracing.WRAPPED:
        module = importlib.import_module(f"otpsense.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_a_traced_attacker_run_stays_json_and_calls_each_attacker_once_per_chunk(
        monkeypatch, engine_chunks):
    # the benchmark's traced runs sum what the attacker ops return into its
    # counters and write them as JSON; a stacked array there would fail them
    tracing = load_tracing()
    users = (UserSpec(),) * 3 + (UserSpec(role="pes", sensed_channels=8), UserSpec(role="ees"),
                                 UserSpec(role="history"))
    sc = Scenario(num_channels=20, users=users, pairs=None, phi=5, rounds=10, seed=3)
    subset = simulate.build_subset(sc, simulate._spawn_streams(sc.seed, sc.users).subset)
    monkeypatch.setattr(simulate, "ROUND_CHUNK", 3 * simulate._round_cells(sc, subset))
    with tracing.Tracer() as tracer:
        summary = tracer.op(0, simulate.run_simulation, sc)
    assert engine_chunks == [3, 3, 3, 1]
    assert summary.attacker_attempts == {3: 10, 4: 10, 5: 5}
    json.dumps(tracer.layers())
    json.dumps({name: [tracer.hits[name], tracer.attempts[name]] for name in tracing.HIT_RATIOS})
    layers = tracer.layers()
    for name in ("pes_act", "ees_act", "ees_decode_attempt", "history_act"):
        # every chunk holds an odd round, so the history user acts in each
        assert layers[f"adversary.{name}"]["calls"] == len(engine_chunks), name

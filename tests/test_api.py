"""The package's public names, and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import otpsense

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


def test_every_name_the_benchmark_tracer_wraps_still_exists():
    # perfbench/tracing.py replaces these functions by name; one that is
    # gone would stop the benchmark, not a test under tests/
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, fn_name in tracing.WRAPPED:
        module = importlib.import_module(f"otpsense.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"

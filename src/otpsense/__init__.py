"""One-time-pad protected collaborative spectrum sensing.

Honest users encrypt their sensing reports with pads drawn from a public
subset; anyone who sensed the same spectrum can vote the pad back out of the
ciphertext, anyone who did not learns exactly nothing.  The package provides
the channel/detector model, the pad-subset protocol with its analytic
recovery-rate predictions, exact leakage analysis, hard-decision fusion,
three free-rider strategies, and a round-based simulator with a CLI.
"""

__version__ = "0.1.0"

from .adversary import AttackOutcome, ees_act, ees_decode_attempt, history_act, pes_act
from .fusion import FusionRule, SensingMetrics, fuse, score
from .leakage import (
    LeakageReport,
    joint_masking_level,
    leakage_report,
    masking_level,
    xi_profile,
)
from .protocol import (
    PadSubset,
    agreement_probability,
    decrypt,
    encrypt_report,
    generate_pairs,
    generate_subset,
    invert_success_rate,
    predict_success_rate,
    recover_pad,
    recover_pads,
)
from .simulate import (
    Scenario,
    SimulationSummary,
    UserSpec,
    apply_sweep,
    build_subset,
    run_experiment,
    run_simulation,
    scenario_from_dict,
    scenario_to_dict,
)
from .spectrum import (
    ChannelModel,
    DetectorProfile,
    persistence,
    sample_states,
    sense,
    stationary_occupancy,
)

__all__ = [
    "AttackOutcome",
    "ChannelModel",
    "DetectorProfile",
    "FusionRule",
    "LeakageReport",
    "PadSubset",
    "Scenario",
    "SensingMetrics",
    "SimulationSummary",
    "UserSpec",
    "agreement_probability",
    "apply_sweep",
    "build_subset",
    "decrypt",
    "ees_act",
    "ees_decode_attempt",
    "encrypt_report",
    "fuse",
    "generate_pairs",
    "generate_subset",
    "history_act",
    "invert_success_rate",
    "joint_masking_level",
    "leakage_report",
    "masking_level",
    "pes_act",
    "persistence",
    "predict_success_rate",
    "recover_pad",
    "recover_pads",
    "run_experiment",
    "run_simulation",
    "sample_states",
    "scenario_from_dict",
    "scenario_to_dict",
    "score",
    "sense",
    "stationary_occupancy",
    "xi_profile",
]

"""The benchmark's workloads: how op i's inputs are made, the op, its check.

Op i runs on inputs derived from (workload seed, i) alone, so the same seed
gives the same inputs.  Ops reach the package only through its public
functions and the `otpsense` CLI, always by module attribute at call time,
so the tracer's wrappers see every call.  README.md says why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from otpsense import cli, leakage, protocol, simulate, spectrum

import exact
import procs

OUT = Path(__file__).resolve().parent / "out"

ERR = Fraction(1, 10)  # false alarm = miss of every simulated detector, so eta = 0.82
WIDTH, BLOCKS = 11, 9  # an odd width that divides M: no tail positions, no vote ties
CHANNELS = WIDTH * BLOCKS
HONEST = simulate.UserSpec(false_alarm=float(ERR), miss=float(ERR))
MI_ZERO = 1e-12


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _masking_problems(summary) -> list[str]:
    level = summary.mean_masking_level
    if level is None or not level <= MI_ZERO:
        return [f"mean_masking_level {level} above {MI_ZERO}"]
    return []


class Workload:
    """One closed-loop client: the next op starts when the previous returns."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build op 0's configuration and pad subset (what setup_s times)."""
        raise NotImplementedError

    def inputs(self, index: int):
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def check(self, x, out) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def run_check(self) -> list[str]:
        """Problems found by a once-per-run check outside the timed ops."""
        return []

    def close(self) -> None:
        """Remove any files the ops left behind."""


class _Simulation(Workload):
    """Ops are `run_simulation` calls on the blocked subset geometry."""

    users: tuple = ()
    rounds = 0

    def inputs(self, index: int) -> simulate.Scenario:
        return simulate.Scenario(
            num_channels=CHANNELS, users=self.users, pairs=None, phi=WIDTH,
            rounds=self.rounds, seed=op_seed(self.seed, index),
        )

    def setup(self) -> None:
        sc = self.inputs(0)
        simulate.build_subset(sc, np.random.default_rng(sc.seed))

    def run(self, sc):
        return simulate.run_simulation(sc)


class Mesh(_Simulation):
    name = "mesh"
    users = (HONEST,) * 20
    rounds = 10

    @functools.cached_property
    def law(self) -> tuple[float, float]:
        return exact.mesh_rate_law(len(self.users), self.rounds, WIDTH, BLOCKS, ERR)

    def check(self, sc, summary) -> list[str]:
        mean, sd = self.law
        rate = summary.honest_recovery_rate
        problems = _masking_problems(summary)
        if rate is None or not abs(rate - mean) <= exact.MESH_Z * sd:
            problems.append(f"honest recovery rate {rate} outside {mean:.4f} +- {exact.MESH_Z * sd:.4f}")
        return problems


class Attack(_Simulation):
    name = "attack"
    PES, EES = 4, 5
    SENSED_BLOCKS = 3
    users = (HONEST,) * 4 + (
        simulate.UserSpec(role="pes", false_alarm=float(ERR), miss=float(ERR),
                          sensed_channels=SENSED_BLOCKS * WIDTH),
        simulate.UserSpec(role="ees"),
        simulate.UserSpec(role="history", false_alarm=float(ERR), miss=float(ERR)),
    )
    rounds = 16

    @functools.cached_property
    def laws(self) -> tuple:
        receivers = 3  # the honest users other than the target
        target = exact.sum_of_iid(exact.round_recoveries_pmf(receivers, WIDTH, BLOCKS, ERR), self.rounds)
        ees = exact.binomial_pmf(self.rounds, Fraction(1, 2**BLOCKS))
        # uncovered blocks are coin flips; covered blocks need their votes
        covered = exact.pad_moments(WIDTH, self.SENSED_BLOCKS, ERR, 1)[1]
        pes = exact.binomial_pmf(self.rounds, covered / 2 ** (BLOCKS - self.SENSED_BLOCKS))
        return receivers, target, ees, pes

    def check(self, sc, summary) -> list[str]:
        receivers, target, ees, pes = self.laws
        problems = _masking_problems(summary)
        rate = summary.target_recovery_rate
        if rate is None or not exact.consistent(target, round(rate * receivers * self.rounds)):
            problems.append(f"target recovery rate {rate} inconsistent with its law")
        for user, law, test in ((self.EES, ees, exact.consistent), (self.PES, pes, exact.not_above)):
            attempts = summary.attacker_attempts.get(user)
            if attempts != self.rounds:
                problems.append(f"user {user} made {attempts} attacks, expected {self.rounds}")
            elif not test(law, round(summary.attacker_success[user] * attempts)):
                problems.append(f"user {user} success {summary.attacker_success[user]} outside its law")
        return problems


class Sweep(Workload):
    """Ops are `otpsense experiment` runs: in a subprocess with a worker pool,
    or, when traced, in-process through `cli.main` with one worker (wrappers
    in forked pool workers would lose their counts)."""

    name = "sweep"
    PAIRS = (1, 4, 16, 64)
    SELFISH = (0, 1, 2, 3)
    USERS = 6
    ROUNDS = 20
    WORKERS = 2
    COLUMNS = {
        "pairs", "selfish", "point", "rounds", "seed", "false_positive_rate",
        "false_negative_rate", "honest_recovery_rate", "target_recovery_rate",
        "mean_masking_level", "attacker_success_rate",
    }

    def __init__(self, seed: int, in_process: bool = False):
        super().__init__(seed)
        self.in_process = in_process
        self.path = OUT / f"sweep-{os.getpid()}.json"

    def config(self, index: int) -> dict:
        return {
            "num_channels": 100,
            "rounds": self.ROUNDS,
            "seed": op_seed(self.seed, index),
            "users": [{"role": "honest"}] * self.USERS,
            "pairs": 1,
            "sweep": [
                {"param": "pairs", "values": list(self.PAIRS)},
                {"param": "selfish", "values": list(self.SELFISH)},
            ],
        }

    def setup(self) -> None:
        cfg = self.config(0)
        sc = simulate.scenario_from_dict(cfg)
        simulate.build_subset(sc, np.random.default_rng(sc.seed))

    def inputs(self, index: int) -> Path:
        OUT.mkdir(exist_ok=True)
        self.path.write_text(json.dumps(self.config(index)))
        return self.path

    def run(self, path: Path) -> str:
        args = ["experiment", "--config", str(path), "--format", "json-lines"]
        if self.in_process:
            out = path.with_suffix(".jsonl")
            code = cli.main(args + ["--workers", "1", "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"otpsense experiment exited {code}")
            return out.read_text()
        proc = procs.run(
            [sys.executable, "-m", "otpsense.cli"] + args + ["--workers", str(self.WORKERS)],
            dict(os.environ), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"otpsense experiment exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def close(self) -> None:
        self.path.unlink(missing_ok=True)
        self.path.with_suffix(".jsonl").unlink(missing_ok=True)

    def check(self, path, text: str) -> list[str]:
        lines = text.splitlines()
        if not lines or "metadata" not in json.loads(lines[0]):
            return ["output has no metadata line"]
        rows = [json.loads(line) for line in lines[1:]]
        grid = list(itertools.product(self.PAIRS, self.SELFISH))
        if len(rows) != len(grid):
            return [f"{len(rows)} rows, expected {len(grid)}"]
        problems = []
        for row, (pairs, selfish) in zip(rows, grid):
            if set(row) != self.COLUMNS:
                problems.append(f"row columns {sorted(row)}")
                continue
            if (row["pairs"], row["selfish"]) != (pairs, selfish):
                problems.append(f"row for {(row['pairs'], row['selfish'])}, expected {(pairs, selfish)}")
                continue
            rate = row["attacker_success_rate"]
            if selfish == 0:
                if rate is not None:
                    problems.append(f"attacker success {rate} with no attackers")
                continue
            # each ees user guesses one of 2*pairs pads uniformly every round
            attempts = self.ROUNDS * selfish
            law = exact.binomial_pmf(attempts, Fraction(1, 2 * pairs))
            if rate is None or not exact.consistent(law, round(rate * attempts)):
                problems.append(f"ees success {rate} at pairs={pairs} inconsistent with 1/{2 * pairs}")
        return problems


class Leakage(Workload):
    name = "leakage"
    CHANNELS, WIDTH = 60, 5  # 12 blocks, 4096 pads
    CLASSES = ((0.1, 0.1, 5), (0.05, 0.2, 5), (0.2, 0.05, 4))  # false alarm, miss, senders

    def __init__(self, seed: int):
        super().__init__(seed)
        self.occupancy = np.linspace(0.2, 0.8, self.CHANNELS)
        self.profiles = [
            spectrum.DetectorProfile.homogeneous(self.CHANNELS, fa, miss)
            for fa, miss, count in self.CLASSES for _ in range(count)
        ]

    def inputs(self, index: int) -> protocol.PadSubset:
        rng = np.random.default_rng(op_seed(self.seed, index))
        return protocol.generate_subset(self.CHANNELS, self.WIDTH, rng)

    def setup(self) -> None:
        self.inputs(0)

    def run(self, subset):
        return leakage.leakage_report(subset, self.occupancy, self.profiles)

    def check(self, subset, report) -> list[str]:
        worst = max(report.per_channel_mi.max(), report.joint_mi.max())
        return [] if worst <= MI_ZERO else [f"closed subset leaks {worst} bits"]

    def run_check(self) -> list[str]:
        """Restrict op 0's subset to the pads sharing the first pad's block 0.
        Pad bits stay fair coins off block 0, so nothing may leak there; on
        block 0 they are constant, and the leak must match brute force."""
        subset = self.inputs(0)
        keep = (subset.pads[:, :self.WIDTH] == subset.pads[0, :self.WIDTH]).all(axis=1)
        restricted = protocol.PadSubset(subset.pads[keep], subset.block_length, subset.num_blocks)
        report = leakage.leakage_report(restricted, self.occupancy, self.profiles)
        problems = []
        off = max(report.per_channel_mi[:, self.WIDTH:].max(), report.joint_mi[self.WIDTH:].max())
        if not off <= MI_ZERO:
            problems.append(f"restricted subset leaks {off} bits off block 0")
        for ch in range(self.WIDTH):
            bit = int(restricted.pads[0, ch])
            want = [brute_force_mi(self.occupancy[ch], bit, [p], ch) for p in self.profiles]
            want.append(brute_force_mi(self.occupancy[ch], bit, self.profiles, ch))
            got = list(report.per_channel_mi[:, ch]) + [report.joint_mi[ch]]
            if not np.allclose(got, want, rtol=0, atol=MI_ZERO):
                problems.append(f"channel {ch}: leakage {got} differs from brute force {want}")
        return problems


def brute_force_mi(occupancy: float, pad_bit: int, profiles, channel: int) -> float:
    """I(C; E_1..E_n) in bits for one channel whose pad bit is fixed, by
    listing all 2**n ciphertext-bit outcomes."""
    report_one = np.array([[p.false_alarm[channel], 1.0 - p.miss[channel]] for p in profiles])
    cipher_one = report_one if pad_bit == 0 else 1.0 - report_one  # (n, state)
    n = len(profiles)
    outcomes = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # (2**n, n)
    like = np.where(outcomes[:, :, None] == 1, cipher_one, 1.0 - cipher_one).prod(axis=1)
    prior = np.array([1.0 - occupancy, occupancy])
    joint = like * prior  # (2**n, state)
    indep = joint.sum(axis=1, keepdims=True) * prior
    seen = joint > 0
    return float(np.sum(joint[seen] * np.log2(joint[seen] / indep[seen])))


WORKLOADS = {w.name: w for w in (Mesh, Attack, Sweep, Leakage)}

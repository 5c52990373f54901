"""Round-based simulator: scenario config, round engine, parameter sweeps.

A scenario fixes the channel model, the user population (roles and detector
profiles), the pad subset construction, the fusion rule and the horizon.
The round engine runs each chunk of rounds in the protocol's phase order:
channel evolution, sensing, publication, attacks, full-mesh exchange,
recovery and decryption, fusion.  It draws every stream for the whole chunk
at once: each attacker makes one call per kind of attack per chunk.  Every
honest receiver decodes every user's ciphertext, its own included (that
pair decodes to its own report), into one busy count per channel.  On a
described subset (`generate_subset`, or one pair) the counts come from
two batched products per chunk over (receiver, sender, block) margins and
flips, without a (pair, channel) array; on other explicit pads from one
recovery call per chunk over a row per pair of distinct users; in
plaintext from one sum of the round's reports.  The engine then applies one
threshold to every honest user.  A chunk holds at most ROUND_CHUNK cells
(see `_round_cells`), so memory does not grow with the horizon.
`run_simulation` runs the horizon chunk by chunk and aggregates metrics;
`run_experiment` sweeps one or two scenario parameters, each sweep point on
an independent random stream derived from (seed, point index), on the
calling process and, where `os.fork` exists, forked workers that claim
points one at a time.

Randomness is split into named streams (channel evolution, sensing, pad
draws, vote tie-breaks, and per attacker one stream for each kind of draw
it makes) spawned from the scenario seed, each generator made only when a
run first draws from it.  One sensing stream serves the
whole population, drawn in (slot, user, channel) order, and every user
draws a full row whatever its role.  So runs with the protocol enabled and
disabled, and the points of a `selfish` sweep, see identical channel truth
and detector noise, and results never depend on worker scheduling.  A
user's noise does depend on the population size N, so populations of
different sizes do not share random numbers user by user.  Each stream is
consumed by one kind of call only, and a chunk's draw of T rounds takes the
same random numbers as T one-round draws, so results do not depend on the
chunk length either.
"""

from __future__ import annotations

import functools
import hashlib
import json
import mmap
import os
import pickle
import signal
from dataclasses import dataclass, fields, replace

import numpy as np

from . import adversary, fusion, protocol, spectrum

ROLES = ("honest", "ees", "pes", "history")
SWEEPABLE = ("channels", "pairs", "phi", "selfish", "rounds", "slot_period")


def _plain_rates(rates, name: str):
    """A rate argument as a spec stores it: a numpy scalar or 0-d array
    becomes a float and a list or array a tuple of floats, so specs stay
    hashable and JSON-ready; tuples and Python numbers are kept as given."""
    if isinstance(rates, (np.ndarray, np.generic)) or (
            not isinstance(rates, tuple) and np.ndim(rates) > 0):
        a = np.asarray(rates, dtype=float)
        if a.ndim > 1:
            raise ValueError(f"{name} must be a number or a sequence of numbers")
        return float(a) if a.ndim == 0 else tuple(a.tolist())
    return rates


@dataclass(frozen=True)
class UserSpec:
    """One participant: role plus detector quality.

    false_alarm/miss are scalars (applied to every channel) or per-channel
    tuples, stored as `_plain_rates` gives them, so every spec is hashable.
    sensed_channels is read only for the "pes" role: the attacker honestly
    senses that many channels from the start of the band.
    """

    role: str = "honest"
    false_alarm: float | tuple = 0.1
    miss: float | tuple = 0.1
    sensed_channels: int = 0

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {ROLES}")
        if self.sensed_channels < 0:
            raise ValueError("sensed_channels must be >= 0")
        for name in ("false_alarm", "miss"):
            object.__setattr__(self, name, _plain_rates(getattr(self, name), name))


@dataclass(frozen=True)
class Scenario:
    """Complete, picklable description of one simulation.

    Subset construction precedence: p_target (size the block length from the
    predicted agreement probability, scaled by omega) > phi (explicit block
    length, scaled by omega) > pairs (that many independent complement
    pairs; one pair is one block).  encrypted=False bypasses pads entirely
    and shares raw reports (the plaintext baseline).  rate_on/rate_off are
    stored as `_plain_rates` gives them.
    """

    num_channels: int = 100
    rate_on: float | tuple = 50.0
    rate_off: float | tuple = 50.0
    slot_period: float = 0.01
    users: tuple[UserSpec, ...] = (UserSpec(),) * 5
    pairs: int | None = 1
    phi: int | None = None
    p_target: float | None = None
    omega: float = 1.0
    fusion_threshold: int | None = None
    include_self: bool = True
    rounds: int = 350
    seed: int = 0
    encrypted: bool = True
    ees_modification: float = 0.0
    ees_copy_previous_round: bool = False
    selfish_role: str = "ees"

    def __post_init__(self):
        if isinstance(self.users, list):
            object.__setattr__(self, "users", tuple(self.users))
        for name in ("rate_on", "rate_off"):
            object.__setattr__(self, name, _plain_rates(getattr(self, name), name))
        if not self.users:
            raise ValueError("scenario needs at least one user")
        if not any(u.role == "honest" for u in self.users):
            raise ValueError("scenario needs at least one honest user")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        if not 1 <= self.omega < np.inf:
            raise ValueError(f"omega must lie in [1, inf), got {self.omega}")
        if self.p_target is not None and not 0 < self.p_target < 1:
            raise ValueError(f"p_target must lie in (0, 1), got {self.p_target}")
        if not 0 <= self.ees_modification <= 1:
            raise ValueError(f"ees_modification must lie in [0, 1], got {self.ees_modification}")
        if self.selfish_role not in ROLES or self.selfish_role == "honest":
            raise ValueError("selfish_role must be an attacker role")
        if self.pairs is None and self.phi is None and self.p_target is None:
            raise ValueError("one of pairs/phi/p_target must be set")
        # each honest receiver fuses one report per other user, plus its own
        reports = len(self.users) - 1 + int(self.include_self)
        if reports < 1:
            raise ValueError("a lone user with include_self=false has no report to fuse")
        if self.fusion_threshold is not None and not 1 <= self.fusion_threshold <= reports:
            raise ValueError(
                f"fusion_threshold must lie in [1, {reports}] (the reports each user fuses), "
                f"got {self.fusion_threshold}"
            )
        for u in self.users:
            if u.role == "pes" and not 0 <= u.sensed_channels <= self.num_channels:
                raise ValueError("pes sensed_channels must lie in [0, num_channels]")


def channel_model(sc: Scenario) -> spectrum.ChannelModel:
    return spectrum.ChannelModel(sc.num_channels, sc.rate_on, sc.rate_off, sc.slot_period)


def detector_profiles(sc: Scenario) -> list[spectrum.DetectorProfile]:
    """One detector profile per user, in user order.  Each (spec, channel
    count) is built once per process and shared by every user and scenario
    with that spec, so its arrays are read-only."""
    return [_detector_profile(u, sc.num_channels) for u in sc.users]


@functools.cache
def _detector_profile(spec: UserSpec, num_channels: int) -> spectrum.DetectorProfile:
    rates = [np.broadcast_to(np.asarray(r, dtype=float), (num_channels,)).copy()
             for r in (spec.false_alarm, spec.miss)]
    for a in rates:
        a.flags.writeable = False
    return spectrum.DetectorProfile(*rates)


def _target_eta(sc: Scenario) -> float | None:
    """The agreement a p_target subset is sized for: the first two honest
    users' lowest per-channel agreement (None without p_target)."""
    if sc.p_target is None:
        return None
    profiles = detector_profiles(sc)
    honest = [p for p, u in zip(profiles, sc.users) if u.role == "honest"]
    pair = honest[:2] if len(honest) > 1 else [honest[0], honest[0]]
    occupancy = spectrum.stationary_occupancy(channel_model(sc))
    return float(protocol.agreement_probability(pair[0], pair[1], occupancy).min())


def build_subset(sc: Scenario, rng: np.random.Generator) -> protocol.PadSubset:
    """Build the scenario's pad subset (see Scenario precedence); p_target
    is met at the first two honest users' lowest per-channel agreement."""
    return protocol.make_subset(sc.num_channels, rng, pairs=sc.pairs, phi=sc.phi,
                                p_target=sc.p_target, eta=_target_eta(sc), omega=sc.omega)


# cells of one chunk of rounds: each round holds its (user, channel) rows
# and, per (receiver, sender) pair, either one block margin per block of a
# described subset or a recovery row num_channels wide
ROUND_CHUNK = 2 ** 19


def _round_cells(sc: Scenario, subset: protocol.PadSubset | None) -> int:
    """Cells one round holds in a chunk (see ROUND_CHUNK) on the scenario's
    built subset, None in plaintext, where a round holds no pair rows: its
    (user, channel) rows and one busy count per (receiver, channel)."""
    n = len(sc.users)
    h = sum(u.role == "honest" for u in sc.users)
    m = sc.num_channels
    if subset is None:
        return (n + h) * m
    if subset.base_pad is not None:
        return n * m + h * n * subset.num_blocks
    return (n + h * (n - 1)) * m


@dataclass(frozen=True, eq=False)
class _Attack:
    """One attacker's attempts against the designated target over a chunk."""

    rounds: np.ndarray                # (T,) bool: the rounds it attacked in
    outcome: adversary.AttackOutcome  # stacked over those A rounds: (A, M) rows
    hits: np.ndarray                  # (A,) bool: it recovered the target's pad


@dataclass(frozen=True, eq=False)
class _Rounds:
    """What a chunk of T rounds produced, each array on a leading round axis."""

    truth: np.ndarray                    # (T, M)
    reports: np.ndarray                  # (T, N, M) by user
    ciphertexts: np.ndarray              # (T, N, M)
    pads: np.ndarray | None              # (T, N, M); None in plaintext
    recovery_success: np.ndarray | None  # (T, N, N) float, 1/0 per (receiver, sender)
                                         # pair with a known pad, NaN elsewhere
    decisions: np.ndarray                # (T, honest users, M) uint8 fused, in user order,
                                         # by one threshold on either mesh route
    attacks: dict[int, _Attack]          # by attacker, in user order


# the kinds of draw each attacker role makes, one generator per (user, kind)
ATTACK_DRAWS = {"ees": ("pick", "flips", "decode"), "pes": ("ties",), "history": ("ties",)}


class _Stream:
    """The generator of one spawn key of the scenario seed, made on first
    use: SeedSequence(seed, spawn_key=key) is the seed's spawned child at
    that key path.  Draw methods and `bit_generator` are the generator's."""

    def __init__(self, seed: int, key: tuple[int, ...]):
        self._seed, self._key = seed, key

    @functools.cached_property
    def _generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self._seed, spawn_key=self._key))

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._generator, name)


@dataclass
class _Streams:
    """The scenario's generators, one per key spawned from the seed: six
    keys, whatever the population, each made only when first drawn from.
    So a run never makes the tie stream where no vote can tie (odd block
    widths) or the ees flips stream at ees_modification 0, and honest-only
    runs make no attacker generator.  The sensing stream draws every user's
    sensing of a slot as one (user, channel) block, slot after slot.  Key 2
    is the attackers': attacker i draws its kind j (ATTACK_DRAWS[role][j])
    from key 2's grandchild (i, j), which spawning key 2 per user and then
    user i's key per kind would give.  So each (attacker, kind) pair has a
    generator of its own: no attacker draw moves another stream, and a
    stacked draw takes the same random numbers as per-round ones."""

    channel: _Stream
    pads: _Stream
    ties: _Stream
    subset: _Stream
    sensing: _Stream
    attack: dict[tuple[int, str], _Stream]  # by (user, kind)


def _subset_stream(seed: int) -> np.random.Generator:
    """The subset stream of `_spawn_streams(seed, ...)`, made on its own."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))


def _spawn_streams(seed: int, users: tuple[UserSpec, ...]) -> _Streams:
    return _Streams(
        channel=_Stream(seed, (0,)),
        pads=_Stream(seed, (1,)),
        ties=_Stream(seed, (3,)),
        subset=_Stream(seed, (4,)),
        sensing=_Stream(seed, (5,)),
        attack={(i, kind): _Stream(seed, (2, i, j))
                for i, u in enumerate(users) for j, kind in enumerate(ATTACK_DRAWS.get(u.role, ()))},
    )


@dataclass
class _State:
    """Mutable carry-over between rounds: the last round's truth, its (N, M)
    sensing and the honest users' ciphertext rows."""

    truth: np.ndarray | None = None
    sensed: np.ndarray | None = None
    ciphertexts: np.ndarray | None = None
    round_index: int = 0


def _run_rounds(
    sc: Scenario,
    subset: protocol.PadSubset | None,
    model: spectrum.ChannelModel,
    profiles: list[spectrum.DetectorProfile],
    state: _State,
    streams: _Streams,
    rounds: int,
) -> _Rounds:
    """Execute a chunk of `rounds` consecutive slots; mutates `state` for
    the next chunk.

    Each slot keeps the protocol's phase order: channel evolution, sensing,
    publication (honest and stale-report users first, copiers second),
    attack measurement against the designated target, full-mesh exchange,
    recovery and decryption of every (honest receiver, sender) pair, and
    fusion for every honest user.  Every stream is drawn for the whole
    chunk at once, from the same random numbers as slot-by-slot draws: the
    channel chain, the sensing of every user (one `spectrum.sense` call on
    the sensing stream, in (slot, user, channel) order), and the pads of
    every publisher (own reports, then pes users).  Each attacker acts once
    per chunk on the stacked rounds, drawing from its own streams (see
    `_Streams`); a history user acts on the chunk's replay rounds only.  Then
    every honest receiver decodes every user's ciphertext of every slot at
    once, its own included: in block space on a described subset
    (`_mesh_by_blocks`), and on explicit pads by one `protocol.recover_pads`
    call (`_mesh_by_rows`).  Both routes draw tie-breaks from streams.ties in
    the same order and return the same hits and busy counts; in plaintext
    the count is the sum of the round's reports.  The recovery matrix, the
    removal of a receiver's own report when include_self is false and the
    fusion threshold are applied here, once.  Attacks are scored against the
    target's pads here, so no ground truth is passed to the attacker ops.
    """
    n = len(sc.users)
    m = sc.num_channels
    roles = np.array([u.role for u in sc.users])
    honest = np.flatnonzero(roles == "honest")
    history = roles == "history"
    own_mask = (roles == "honest") | history
    own = np.flatnonzero(own_mask)
    pes = np.flatnonzero(roles == "pes")
    target = _designated_recipient(sc)
    truth = spectrum.sample_states(model, streams.channel, previous=state.truth, slots=rounds)

    # sensing: every role draws a full vector (keeps the draw the same
    # across role reassignments); pes reads only its prefix
    sensed = spectrum.sense(truth, profiles, streams.sensing)  # (T, N, M)
    replay = (state.round_index + np.arange(rounds)) % 2 == 1

    # phase 1: users with a report of their own publish it; phase 2 fills
    # the other rows
    reports = sensed.copy()
    if own.size < n:
        reports[:, ~own_mask] = 0
    if history.any():
        # each slot's previous sensing, which history users replay on odd
        # rounds (round 0 replays nothing)
        first = sensed[0] if state.sensed is None else state.sensed
        stale = np.concatenate([first[None], sensed[:-1]])
        replayed = replay[:, None] & history
        reports[replayed] = stale[replayed]
    # recovery is only scorable against senders whose pad is well defined
    # (a forwarded copy of unknown provenance has none)
    pad_known = np.zeros((rounds, n), dtype=bool)
    publishers = np.concatenate([own, pes])
    pad_known[:, publishers] = True
    if sc.encrypted:
        drawn = subset.draw(streams.pads, (rounds, publishers.size))
        if np.array_equal(publishers, np.arange(n)):
            # drawn pads are laid out channel-major; every later step reads
            # them in (round, user) rows
            pads = np.ascontiguousarray(drawn)
        else:  # ees users publish no pad, and pes users publish after the own ones
            pads = np.zeros_like(reports)
            pads[:, publishers] = drawn
        # final on the own rows only: phase 2 writes every ees and pes row
        ciphertexts = reports ^ pads
    else:
        pads, ciphertexts = None, reports.copy()

    # phase 2: copiers publish (ees forwards a copy, pes fills its gaps by
    # cracking), and every attacker measures its attack on the designated
    # target, each in one call per kind over the whole chunk
    attacks: dict[int, _Attack] = {}
    observed = ciphertexts[:, honest]
    cipher = ciphertexts[:, target]
    # ees users copy from the previous round when told to, from round 1 of
    # the run on; round 0 of a chunk takes the previous chunk's ciphertexts
    copy_previous = np.full(rounds, sc.ees_copy_previous_round)
    copy_previous[0] &= state.ciphertexts is not None
    observable = observed
    if copy_previous.any():
        previous = np.concatenate([observed[:1] if state.ciphertexts is None
                                   else state.ciphertexts[None], observed[:-1]])
        observable = np.where(copy_previous[:, None, None], previous, observed)

    def attack(i, tried, outcome):
        hits = (outcome.recovered_pad == pads[tried, target]).all(axis=-1)
        attacks[i] = _Attack(tried, outcome, hits)

    every = np.ones(rounds, dtype=bool)
    for i, u in enumerate(sc.users):
        if u.role == "honest":
            continue
        if u.role == "ees":
            forged = adversary.ees_act(observable, streams.attack[i, "pick"], sc.ees_modification,
                                       streams.attack[i, "flips"])
            ciphertexts[:, i] = forged
            if not sc.encrypted:
                reports[:, i] = forged
            elif sc.ees_modification == 0.0:
                # a verbatim copy of this round's ciphertexts inherits the
                # content, hence the pad, of the first honest one it equals
                fresh = np.flatnonzero(~copy_previous)
                src = honest[(observable[fresh] == forged[fresh, None]).all(axis=2).argmax(axis=1)]
                reports[fresh, i] = reports[fresh, src]
                pads[fresh, i] = pads[fresh, src]
                pad_known[fresh, i] = True
            if sc.encrypted:
                attack(i, every, adversary.ees_decode_attempt(cipher, subset,
                                                              streams.attack[i, "decode"]))
        elif u.role == "pes":
            k = u.sensed_channels
            merged = reports[:, target].copy()
            if sc.encrypted:
                partial = np.zeros((rounds, m), dtype=np.uint8)
                partial[:, :k] = sensed[:, i, :k]
                outcome = adversary.pes_act(np.arange(k), partial, cipher, subset,
                                            streams.attack[i, "ties"])
                attack(i, every, outcome)
                merged = outcome.guessed_states.copy()
            merged[:, :k] = sensed[:, i, :k]
            reports[:, i] = merged
            ciphertexts[:, i] = merged if pads is None else merged ^ pads[:, i]
        elif sc.encrypted and replay.any():  # a history user attacks on replay rounds only
            attack(i, replay, adversary.history_act(stale[replay, i], cipher[replay], subset,
                                                    streams.attack[i, "ties"]))

    # phases 3-5: full-mesh exchange, every honest user decoding every
    # user's ciphertext, its own included, and one rule for every honest
    # user of every slot
    recovery = None
    if sc.encrypted:
        mesh = _mesh_by_blocks if subset.base_pad is not None else _mesh_by_rows
        hits, counts = mesh(subset, honest, reports, ciphertexts, pads, streams.ties)
        scored = np.where((honest[:, None] != np.arange(n)) & pad_known[:, None], hits, np.nan)
        if honest.size == n:
            recovery = scored
        else:
            recovery = np.full((rounds, n, n), np.nan)
            recovery[:, honest] = scored
    else:
        # every receiver reads the same round of reports
        counts = ciphertexts.sum(axis=1, dtype=np.min_scalar_type(n))[:, None]
        counts = np.broadcast_to(counts, (rounds, honest.size, m))
    if not sc.include_self:
        counts = counts - reports[:, honest]
    reports_each = n - 1 + int(sc.include_self)
    rule = (fusion.FusionRule.majority(reports_each) if sc.fusion_threshold is None
            else fusion.FusionRule(sc.fusion_threshold, reports_each))
    decisions = (counts >= rule.threshold).view(np.uint8)

    state.truth = truth[-1].copy()
    state.sensed = sensed[-1].copy()
    state.ciphertexts = observed[-1].copy()
    state.round_index += rounds
    return _Rounds(
        truth=truth,
        reports=reports,
        ciphertexts=ciphertexts,
        pads=pads,
        recovery_success=recovery,
        decisions=decisions,
        attacks=attacks,
    )


def _mesh_by_rows(subset, honest, reports, ciphertexts, pads, ties):
    """Phases 3-5 on a row per (receiver, other sender) pair: one
    `protocol.recover_pads` call over every pair of every slot, round-major,
    then receiver, then sender (the order ties are drawn from `ties`).  A
    receiver's own pair is not voted: it decodes to the receiver's own
    report, which is added to the summed decodes.

    Returns:
        hits: (T, honest users, N) bool, the recovered pad is the sent one
            (True on the receiver's own pair).
        counts: (T, honest users, M) busy count over all N decoded reports.
    """
    rounds, n, m = reports.shape
    pair_h, senders = np.nonzero(honest[:, None] != np.arange(n))
    received = np.take(ciphertexts, senders, axis=1)
    own_reports = np.take(reports, honest[pair_h], axis=1).reshape(-1, m)
    got = protocol.recover_pads(own_reports, received.reshape(-1, m), subset,
                                ties).reshape(received.shape)
    received ^= got
    hits = np.ones((rounds, honest.size, n), dtype=bool)
    # recovered and sent pads are both members of the subset, so their
    # member keys decide equality
    sent = np.take(subset.member_keys(pads), senders, axis=1)
    hits[:, pair_h, senders] = (subset.member_keys(got) == sent).all(axis=-1)
    counts = received.reshape(rounds, honest.size, n - 1, m).sum(axis=2,
                                                                 dtype=np.min_scalar_type(n))
    counts += reports[:, honest]
    return hits, counts


def _mesh_by_blocks(subset, honest, reports, ciphertexts, pads, ties):
    """`_mesh_by_rows` on a described subset, in block space: two batched
    products per chunk, and no array with both a pair axis and a channel
    axis.  Every receiver votes on every ciphertext, its own included: its
    own target is its own pad, a member, so each of that pair's block
    margins is plus or minus the block's width, and it neither ties nor
    misdecodes.

    With X a receiver's report and Y = ciphertext ^ base_pad a sender's,
    1 - 2(x ^ y) = (2x - 1)(2y - 1), so the block margins of every pair's
    target X ^ C are one product of zero-padded sign blocks, (T, B, H, w) @
    (T, B, w, N).  `protocol._block_digits`, the vote's own digit and tie
    rule, turns them into digits in (round, receiver, sender) order: a
    (T, H, N, B) view of a block-major (T, B, H, N) buffer.  A pair's pad is
    recovered when every block's digit matches the sent pad's, and that
    test reduces over blocks along whichever axis is longer: in the
    buffer's own order when the (receiver, sender) pairs outnumber the
    blocks, as in a large population, and along the strided block axis
    when blocks outnumber pairs, as in a few users on narrow blocks.  Pair
    (h, s) decrypts channel m to Y_s[m] ^ f, where f is the flip digit of
    m's block (1 where the recovered block is the base block's complement),
    and Y ^ f = 1/2 + (1/2 - f)(2Y - 1): so receiver h's busy count is N/2
    plus the product of its (1/2 - f) weights with the sign blocks.  Every
    value is a multiple of 1/2 of magnitude at most max(M, N), exact in the
    subset's unit-weight dtype.
    """
    rounds, n, m = reports.shape
    dtype = subset._unit_weights.dtype
    # (T, B, rows, w) sign blocks of X and Y
    x = protocol._signed_blocks(reports[:, honest], subset, dtype).transpose(0, 2, 1, 3)
    y = protocol._signed_blocks(ciphertexts ^ subset.base_pad, subset, dtype).transpose(0, 2, 1, 3)
    margins = x @ y.swapaxes(-1, -2)  # (T, B, H, N)
    digits = protocol._block_digits(margins.transpose(0, 2, 3, 1), subset, ties)  # (T, H, N, B)
    keys = subset.member_keys(pads)  # (T, N, B)
    if honest.size * n > subset.num_blocks:
        hits = (digits.transpose(0, 3, 1, 2) == keys.transpose(0, 2, 1)[:, :, None]).all(axis=1)
    else:
        hits = (digits == keys[:, None]).all(axis=-1)

    # pair (h, s) decrypts channel m to Y_s ^ f = 1/2 + (1/2 - f)(2Y_s - 1)
    flips = (digits ^ subset.base_pad[::subset.block_length]).transpose(0, 3, 1, 2)
    weights = np.subtract(0.5, flips, dtype=dtype)  # (T, B, H, N)
    counts = weights @ y  # (T, B, H, w)
    counts = counts.transpose(0, 2, 1, 3).reshape(rounds, honest.size, -1)[..., :m]
    counts += n / 2
    return hits, counts


def _designated_recipient(sc: Scenario) -> int:
    return next(i for i, u in enumerate(sc.users) if u.role == "honest")


@dataclass(frozen=True, eq=False)
class SimulationSummary:
    """Aggregates over one scenario run."""

    scenario: Scenario
    metrics: fusion.SensingMetrics
    honest_recovery_rate: float | None
    target_recovery_rate: float | None
    attacker_success: dict[int, float]
    attacker_attempts: dict[int, int]
    ees_contingency: np.ndarray
    mean_masking_level: float | None

    def row(self) -> dict:
        r = {
            "rounds": self.scenario.rounds,
            "seed": self.scenario.seed,
            "false_positive_rate": self.metrics.false_positive_rate,
            "false_negative_rate": self.metrics.false_negative_rate,
            "honest_recovery_rate": self.honest_recovery_rate,
            "target_recovery_rate": self.target_recovery_rate,
            "mean_masking_level": self.mean_masking_level,
        }
        if self.attacker_success:
            r["attacker_success_rate"] = float(np.mean(list(self.attacker_success.values())))
        else:
            r["attacker_success_rate"] = None
        return r


def run_simulation(sc: Scenario) -> SimulationSummary:
    """Run the configured horizon in chunks of rounds and aggregate.

    Recovery rates: honest_recovery_rate pools every honest recipient ->
    sender pair; target_recovery_rate restricts to other honest users
    recovering the designated recipient's own publications, which is the
    honest benchmark the attacker numbers compare against (attackers aim at
    the same target).
    """
    streams = _spawn_streams(sc.seed, sc.users)
    model = channel_model(sc)
    profiles = detector_profiles(sc)
    subset = build_subset(sc, streams.subset) if sc.encrypted else None
    state = _State()
    target = _designated_recipient(sc)
    step = max(1, ROUND_CHUNK // _round_cells(sc, subset))

    metrics = None
    rec_ok = rec_all = 0
    tgt_ok = tgt_all = 0
    attack_ok: dict[int, int] = {}
    attack_all: dict[int, int] = {}
    contingency = np.zeros((2, 2), dtype=np.int64)

    for lo in range(0, sc.rounds, step):
        out = _run_rounds(sc, subset, model, profiles, state, streams, min(step, sc.rounds - lo))
        scored = fusion.score(out.decisions[:, 0], out.truth)  # the target is the first honest user
        metrics = scored if metrics is None else metrics + scored
        if out.recovery_success is not None:
            # a NaN (no scorable pad) is neither 1 nor >= 0
            rec, col = out.recovery_success, out.recovery_success[:, :, target]
            rec_ok += int(np.count_nonzero(rec == 1))
            rec_all += int(np.count_nonzero(rec >= 0))
            tgt_ok += int(np.count_nonzero(col == 1))
            tgt_all += int(np.count_nonzero(col >= 0))
        guesses = []  # (truth, ees guess) cells, as 2 * truth + guess
        for i, a in out.attacks.items():
            attack_all[i] = attack_all.get(i, 0) + a.hits.size
            attack_ok[i] = attack_ok.get(i, 0) + int(a.hits.sum())
            if sc.users[i].role == "ees":
                guesses.append(2 * out.truth[a.rounds] + a.outcome.guessed_states)
        if guesses:
            contingency += np.bincount(np.concatenate(guesses, axis=None),
                                       minlength=4).reshape(2, 2)

    return SimulationSummary(
        scenario=sc,
        metrics=metrics,
        honest_recovery_rate=rec_ok / rec_all if rec_all else None,
        target_recovery_rate=tgt_ok / tgt_all if tgt_all else None,
        attacker_success={i: attack_ok[i] / attack_all[i] for i in sorted(attack_all)},
        attacker_attempts={i: attack_all[i] for i in sorted(attack_all)},
        ees_contingency=contingency,
        # every pad bit of a complement-closed subset is a fair coin
        mean_masking_level=0.0 if sc.encrypted else None,
    )


# ---- parameter sweeps -------------------------------------------------


def apply_sweep(sc: Scenario, assignment: dict) -> Scenario:
    """Return a scenario with sweep parameters substituted.

    "selfish" converts the last k users to scenario.selfish_role (the base
    population must be honest); the other names map onto scenario fields
    ("channels" -> num_channels, "pairs", "phi", "rounds", "slot_period").
    Every parameter but "slot_period" takes integers only.
    """
    out = sc
    for name, value in assignment.items():
        if name in ("channels", "pairs", "phi", "rounds", "selfish"):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"sweep parameter {name!r} takes integers, got {value!r}")
            value = int(value)
        if name == "channels":
            out = replace(out, num_channels=value)
        elif name == "pairs":
            out = replace(out, pairs=value, phi=None, p_target=None)
        elif name == "phi":
            out = replace(out, phi=value, pairs=None, p_target=None)
        elif name == "rounds":
            out = replace(out, rounds=value)
        elif name == "slot_period":
            out = replace(out, slot_period=float(value))
        elif name == "selfish":
            if not 0 <= value < len(out.users):
                raise ValueError(f"selfish count must lie in [0, {len(out.users) - 1}], leaving "
                                 f"an honest user, got {value}")
            if any(u.role != "honest" for u in out.users):
                raise ValueError('sweeping "selfish" needs an all-honest base population')
            users = list(out.users)
            for i in range(len(users) - value, len(users)):
                users[i] = replace(users[i], role=out.selfish_role)
            out = replace(out, users=tuple(users))
        else:
            raise ValueError(f"unknown sweep parameter {name!r}, expected one of {SWEEPABLE}")
    return out


def _point_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def _run_point(args) -> dict:
    point, row = args
    return {**row, **run_simulation(point).row()}


class _Claims:
    """Hands out the indices 0, 1, 2, ... once each across forked processes:
    an 8-byte counter in anonymous shared memory, guarded by a one-byte pipe
    lock (a process holds the lock from reading the pipe's one byte until it
    writes it back)."""

    def __init__(self):
        self.counter = mmap.mmap(-1, 8)
        self.lock_r, self.lock_w = os.pipe()
        os.write(self.lock_w, b"\0")

    def next(self) -> int:
        os.read(self.lock_r, 1)
        try:
            i = int.from_bytes(self.counter, "little")
            self.counter[:] = (i + 1).to_bytes(8, "little")
        finally:
            os.write(self.lock_w, b"\0")
        return i

    def close(self) -> None:
        self.counter.close()
        os.close(self.lock_r)
        os.close(self.lock_w)


def _claim_points(
    tasks: list, claims: _Claims, caller: int | None = None,
) -> list[tuple[int, dict]]:
    """Run points until none are left to claim.  A forked worker passes its
    caller's pid and stops at its next claim once the caller is gone (killed
    by a signal it could not act on), so an orphan runs at most one more point."""
    done = []
    while (caller is None or os.getppid() == caller) and (i := claims.next()) < len(tasks):
        done.append((i, _run_point(tasks[i])))
    return done


def _serve_child(tasks: list, claims: _Claims, out: int, caller: int) -> None:
    """A forked worker's whole life: run points, pickle `(True, rows)` or
    `(False, (exception, traceback text))` down `out`, and leave with
    `os._exit`, so it never returns into the caller's stack, runs its exit
    hooks or flushes the stdio buffers it inherited.  It exits 0 only once
    its message is sent.  It ignores SIGINT: on Ctrl-C the caller kills it,
    and it can never be interrupted while it holds the claim lock."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            message = (True, _claim_points(tasks, claims, caller))
        except BaseException as exc:
            import traceback  # only a failed worker needs it

            where = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            message = (False, (exc, where))
        with open(out, "wb") as f:
            pickle.dump(message, f)
        status = 0
    finally:
        os._exit(status)


def _run_forked(tasks: list, workers: int) -> list[dict]:
    """Run `tasks` on `workers - 1` forked children and this process, each
    claiming the next unclaimed point when it is free, so a slow point holds
    up only the process that runs it.  A child that a point raised in stops,
    and the exception is raised here once this process has run out of
    points; an error in this process (a point's, or KeyboardInterrupt) kills
    the children.  Every child is reaped before this returns or raises."""
    claims = _Claims()
    caller = os.getpid()
    pids, pipes = [], []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_child(tasks, claims, w, caller)
            finally:
                os.close(w)
            pids.append(pid)
        done = _claim_points(tasks, claims)
        blobs = []
        for r in pipes:
            with open(r, "rb", closefd=False) as f:
                blobs.append(f.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        for r in pipes:
            os.close(r)
        claims.close()
    for pid, blob, status in zip(pids, blobs, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"sweep worker {pid} {how} before sending its rows")
        ok, value = pickle.loads(blob)
        if not ok:
            exc, where = value
            raise exc from RuntimeError(f"in sweep worker {pid}:\n{where}")
        done += value
    rows = [None] * len(tasks)
    for i, row in done:
        rows[i] = row
    return rows


def run_experiment(
    sc: Scenario,
    sweep: list[tuple[str, list]],
    workers: int = 1,
) -> list[dict]:
    """Cross-product sweep over one or two parameters.

    Every point runs `run_simulation` on a seed derived from (scenario seed,
    point index), so results are reproducible and independent of `workers`.
    `workers` (at least 1) counts processes, the caller included: past one
    point, `min(workers, points) - 1` workers are forked and every process
    claims one point at a time until none are left.  Where `os.fork` does
    not exist the points run serially in the caller.  A forked worker holds
    only the calling thread, so a program that runs other threads should
    pass 1, as with any fork.  Every point's scenario, channel model,
    detector profiles and pad subset are built, and so checked, before any
    point runs.  Rows come back in point order.
    """
    if not 1 <= len(sweep) <= 2:
        raise ValueError("sweep must name one or two parameters")
    names = [name for name, _ in sweep]
    if len(set(names)) != len(names):
        raise ValueError("sweep parameters must be distinct")
    for name, values in sweep:
        if name not in SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {name!r}, expected one of {SWEEPABLE}")
        if not values:
            raise ValueError(f"sweep parameter {name!r} has no values")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    assignments = [{names[0]: v} for v in sweep[0][1]]
    if len(sweep) == 2:
        assignments = [dict(a, **{names[1]: v}) for a in assignments for v in sweep[1][1]]
    tasks = [
        (replace(apply_sweep(sc, a), seed=_point_seed(sc.seed, i)), {**a, "point": i})
        for i, a in enumerate(assignments)
    ]

    for point, _ in tasks:
        # what run_simulation builds before round 1, on a throwaway copy of its subset stream
        channel_model(point)
        detector_profiles(point)
        if point.encrypted:
            build_subset(point, _subset_stream(point.seed))

    workers = min(workers, len(tasks))
    if workers > 1 and hasattr(os, "fork"):
        return _run_forked(tasks, workers)
    return [_run_point(t) for t in tasks]


# ---- config files ------------------------------------------------------


def scenario_to_dict(sc: Scenario) -> dict:
    d = {}
    for f in fields(Scenario):
        v = getattr(sc, f.name)
        if f.name == "users":
            v = [
                {
                    "role": u.role,
                    "false_alarm": _plain(u.false_alarm),
                    "miss": _plain(u.miss),
                    "sensed_channels": u.sensed_channels,
                }
                for u in v
            ]
        else:
            v = _plain(v)
        d[f.name] = v
    return d


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, (np.integer, np.floating)):
        return v.item()
    return v


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return _is_number(v) or (isinstance(v, list) and all(_is_number(x) for x in v))


def _or_null(check):
    return lambda v: v is None or check(v)


# JSON type of every config key but "sweep": (check, what the error asks for)
_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a number")
_NUMBERS = (_is_numbers, "a number or a list of numbers")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_STRING = (lambda v: isinstance(v, str), "a string")
_CONFIG_TYPES = {
    "num_channels": _INT,
    "rate_on": _NUMBERS,
    "rate_off": _NUMBERS,
    "slot_period": _NUMBER,
    "users": (lambda v: isinstance(v, list), "a list of user objects"),
    "pairs": (_or_null(_is_int), "an integer or null"),
    "phi": (_or_null(_is_int), "an integer or null"),
    "p_target": (_or_null(_is_number), "a number or null"),
    "omega": _NUMBER,
    "fusion_threshold": (_or_null(_is_int), "an integer or null"),
    "include_self": _BOOL,
    "rounds": _INT,
    "seed": _INT,
    "encrypted": _BOOL,
    "ees_modification": _NUMBER,
    "ees_copy_previous_round": _BOOL,
    "selfish_role": _STRING,
    "workers": _INT,
}
_USER_TYPES = {
    "role": _STRING,
    "false_alarm": _NUMBERS,
    "miss": _NUMBERS,
    "sensed_channels": _INT,
}


def _check_types(d: dict, types: dict, where: str) -> None:
    bad = set(d) - set(types)
    if bad:
        raise ValueError(f"{where} has unknown keys: {sorted(bad)}")
    for key, value in d.items():
        check, expected = types[key]
        if not check(value):
            raise ValueError(f"{where} key {key!r} must be {expected}, got {value!r}")


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from parsed JSON, rejecting unknown keys and values
    of the wrong JSON type.  Rate lists go to `Scenario` and `UserSpec` as
    given, so they are stored as tuples of floats just as lists passed in
    code are, and both forms have one config hash."""
    if not isinstance(d, dict):
        raise ValueError("config must be a JSON object")
    _check_types({k: v for k, v in d.items() if k != "sweep"}, _CONFIG_TYPES, "config")
    known = {f.name for f in fields(Scenario)}
    kwargs = {k: v for k, v in d.items() if k in known}
    if "users" in kwargs:
        specs = []
        for i, u in enumerate(kwargs["users"]):
            if not isinstance(u, dict):
                raise ValueError(f"users[{i}] must be an object")
            _check_types(u, _USER_TYPES, f"users[{i}]")
            specs.append(UserSpec(**u))
        kwargs["users"] = tuple(specs)
    return Scenario(**kwargs)


def sweep_from_dict(d: dict) -> list[tuple[str, list]]:
    """Parse the "sweep" config entry: a list of {"param", "values"}."""
    raw = d.get("sweep")
    if raw is None:
        raise ValueError('experiment config needs a "sweep" entry')
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise ValueError('"sweep" must be an object or a list of objects')
    out = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, dict)
            or set(entry) != {"param", "values"}
            or not isinstance(entry["param"], str)
            or not isinstance(entry["values"], list)
            or not all(_is_number(v) for v in entry["values"])
        ):
            raise ValueError(f'sweep[{i}] must be {{"param": "<name>", "values": [numbers]}}')
        out.append((entry["param"], entry["values"]))
    return out


def config_hash(d: dict) -> str:
    """Stable digest of a config dict for output provenance."""
    blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]

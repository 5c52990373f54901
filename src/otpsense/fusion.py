"""Hard-decision fusion of sensing reports and decision scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FusionRule:
    """k-out-of-n rule: declare a channel busy when at least `threshold` of
    the `num_reports` collected reports say busy."""

    threshold: int
    num_reports: int

    def __post_init__(self):
        if not 1 <= self.threshold <= self.num_reports:
            raise ValueError(
                f"threshold must lie in [1, {self.num_reports}], got {self.threshold}"
            )

    @classmethod
    def majority(cls, num_reports: int) -> "FusionRule":
        return cls((num_reports + 2) // 2, num_reports)


def fuse(reports, rule: FusionRule) -> np.ndarray:
    """Combine reports (shape (n, M), one row per user) into one decision
    vector, or each (n, M) stack of an (..., n, M) array into one row of
    (..., M).  Row order cannot matter: only the per-channel busy count
    along the report axis does."""
    reports = np.atleast_2d(np.asarray(reports, dtype=np.uint8))
    if reports.shape[-2] != rule.num_reports:
        raise ValueError(f"rule expects {rule.num_reports} reports, got {reports.shape[-2]}")
    if reports.max(initial=0) > 1:
        raise ValueError("report entries must be 0 or 1")
    # the narrowest count type that holds num_reports
    counts = reports.sum(axis=-2, dtype=np.min_scalar_type(rule.num_reports))
    return (counts >= rule.threshold).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class SensingMetrics:
    """Per-channel error tallies of fused decisions against the truth.

    false_alarms[i] counts decisions busy on idle slots of channel i out of
    idle_slots[i]; misses[i] counts decisions idle on busy slots out of
    busy_slots[i].  Aggregate rates pool every (slot, channel) pair.
    """

    false_alarms: np.ndarray
    idle_slots: np.ndarray
    misses: np.ndarray
    busy_slots: np.ndarray

    def __post_init__(self):
        for got, avail in ((self.false_alarms, self.idle_slots), (self.misses, self.busy_slots)):
            if (got < 0).any() or (got > avail).any():
                raise ValueError("error counts must lie within their slot tallies")

    @property
    def false_positive_rate(self) -> float:
        idle = int(self.idle_slots.sum())
        return int(self.false_alarms.sum()) / idle if idle else 0.0

    @property
    def false_negative_rate(self) -> float:
        busy = int(self.busy_slots.sum())
        return int(self.misses.sum()) / busy if busy else 0.0

    def __add__(self, other: "SensingMetrics") -> "SensingMetrics":
        if self.false_alarms.shape != other.false_alarms.shape:
            raise ValueError("cannot add metrics over different channel counts")
        return SensingMetrics(
            false_alarms=self.false_alarms + other.false_alarms,
            idle_slots=self.idle_slots + other.idle_slots,
            misses=self.misses + other.misses,
            busy_slots=self.busy_slots + other.busy_slots,
        )


def score(decisions, truths) -> SensingMetrics:
    """Tally fused decisions against true states.

    Accepts single vectors or stacked (slots, M) arrays; both inputs must
    share one shape and be non-empty.
    """
    decisions = np.atleast_2d(np.asarray(decisions, dtype=np.uint8))
    truths = np.atleast_2d(np.asarray(truths, dtype=np.uint8))
    if decisions.shape != truths.shape or decisions.size == 0:
        raise ValueError(f"shape mismatch or empty: {decisions.shape} vs {truths.shape}")
    idle = truths == 0
    busy = truths == 1
    return SensingMetrics(
        false_alarms=(idle & (decisions == 1)).sum(axis=0),
        idle_slots=idle.sum(axis=0),
        misses=(busy & (decisions == 0)).sum(axis=0),
        busy_slots=busy.sum(axis=0),
    )

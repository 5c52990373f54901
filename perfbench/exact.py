"""Sampling laws behind the benchmark's output checks.

A check fails an op only when the observed count lies in a tail of its law
that holds less than FALSE_FAIL of the probability, so a correct program
fails a check about once in 1e9 ops.  Nothing here is fitted to a seed: every
law follows from the detector error rate and the subset geometry.

Recoveries within one round are not independent, because receivers vote
against shared sender reports.  With false alarm equal to miss (the
benchmark's detectors), receiver r agrees with sender s on a channel exactly
when their detector errors coincide, whatever the truth.  Given the sender's
errors, receivers therefore succeed independently with a probability Q fixed
by the sender's per-block error counts, and rounds are independent because
detector noise is fresh every round.

* One sender's recoveries (the target column): the round count is a
  Binomial(receivers, Q) mixture over Q, known exactly.
* The pooled rate of a full mesh: the exact law is out of reach, so the check
  uses its exact mean and variance with a band of MESH_Z standard deviations.
  One sender's count over the same rounds has the heavier tail (it averages
  20 times fewer independent sender reports), and its exact 1e-9 quantiles
  lie about 12 of its standard deviations out, so 13 is wide enough.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

FALSE_FAIL = 1e-9
MESH_Z = 13.0


def binomial_pmf(n: int, p) -> list[float]:
    """P(X = k) for X ~ Binomial(n, p), k = 0..n."""
    return [float(comb(n, k) * Fraction(p) ** k * (1 - Fraction(p)) ** (n - k)) for k in range(n + 1)]


def _add_binomial(pmf: list[Fraction], n: int, p: Fraction) -> list[Fraction]:
    """Law of X + Y for X ~ pmf and an independent Y ~ Binomial(n, p)."""
    out = [Fraction(0)] * (len(pmf) + n)
    for i, a in enumerate(pmf):
        for k in range(n + 1):
            out[i + k] += a * comb(n, k) * p**k * (1 - p) ** (n - k)
    return out


def block_vote_given_errors(width: int, err: Fraction) -> list[Fraction]:
    """g[k]: probability that a receiver's majority vote over an odd-width
    block picks the sender's pad block, when the sender has k detector errors
    in it.  The receiver agrees with probability err on those k channels and
    1 - err on the other width - k."""
    if width % 2 == 0:
        raise ValueError("even widths admit vote ties; the law assumes odd widths")
    g = []
    for k in range(width + 1):
        agree = _add_binomial(_add_binomial([Fraction(1)], k, err), width - k, 1 - err)
        g.append(sum(agree[(width + 1) // 2:]))
    return g


def pad_moments(width: int, blocks: int, err: Fraction, top: int) -> list[Fraction]:
    """E[Q**a] for a = 0..top, where Q is the probability that a receiver
    recovers the sender's whole pad given the sender's detector errors.  Q is
    the product of g over the sender's independent blocks, so
    E[Q**a] = E[g**a]**blocks.  E[Q] equals
    predict_success_rate(width, eta)**blocks with eta = err**2 + (1-err)**2."""
    g = block_vote_given_errors(width, err)
    weight = [comb(width, k) * err**k * (1 - err) ** (width - k) for k in range(width + 1)]
    return [sum(w * gk**a for w, gk in zip(weight, g)) ** blocks for a in range(top + 1)]


def round_recoveries_pmf(receivers: int, width: int, blocks: int, err: Fraction) -> list[float]:
    """Law of the number of receivers (out of `receivers`) that recover one
    sender's pad in one round: P(K = j) = C(n, j) E[Q**j (1 - Q)**(n - j)],
    expanded binomially into moments of Q.  The arithmetic is in exact
    rationals, so the alternating sum loses nothing."""
    moment = pad_moments(width, blocks, err, receivers)
    pmf = []
    for j in range(receivers + 1):
        rest = receivers - j
        total = sum(comb(rest, i) * (-1) ** i * moment[j + i] for i in range(rest + 1))
        pmf.append(float(comb(receivers, j) * total))
    return pmf


def mesh_rate_law(users: int, rounds: int, width: int, blocks: int, err: Fraction) -> tuple[float, float]:
    """Mean and standard deviation of the pooled recovery rate of a full mesh
    of honest users over `rounds` rounds.

    Recovery is symmetric (r recovers s's pad exactly when s recovers r's,
    since both votes see e_r xor e_s), so the rate is the mean over unordered
    pairs.  Pairs without a common user are independent; two pairs sharing
    one user have covariance E[Q**2] - E[Q]**2 (both receivers vote against
    the shared user's errors).
    """
    _, p, q2 = (float(m) for m in pad_moments(width, blocks, err, 2))
    pairs = users * (users - 1) // 2
    sharing = users * (users - 1) * (users - 2)  # ordered pairs of pairs with one common user
    var = (pairs * p * (1 - p) + sharing * (q2 - p * p)) / pairs**2 / rounds
    return p, var**0.5


def sum_of_iid(pmf: list[float], times: int) -> list[float]:
    """Law of the sum of `times` independent draws from `pmf`."""
    out = [1.0]
    for _ in range(times):
        nxt = [0.0] * (len(out) + len(pmf) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(pmf):
                nxt[i + j] += a * b
        out = nxt
    return out


def consistent(pmf: list[float], observed: int, false_fail: float = FALSE_FAIL) -> bool:
    """Two-sided test: `observed` lies outside both tails of mass false_fail/2."""
    if not 0 <= observed < len(pmf):
        return False
    return min(sum(pmf[:observed + 1]), sum(pmf[observed:])) > false_fail / 2


def not_above(pmf: list[float], observed: int, false_fail: float = FALSE_FAIL) -> bool:
    """One-sided test: `observed` is not in the upper tail of mass false_fail."""
    if not 0 <= observed < len(pmf):
        return False
    return sum(pmf[observed:]) > false_fail

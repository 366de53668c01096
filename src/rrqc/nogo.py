"""Executable no-go checks.

Two obstructions are made computational here. First, a controlled routing of
n qubit carriers reduces to a relative permutation tau of the slots, and for
odd n every computational bitstring has a slot j with b_j = b_{tau(j)}; that
slot's qubit ends up in a fixed basis state, independent of the routed
message. ``fixed_bit_scan`` checks this exhaustively over all (tau, b) and
``routed_channel_state_scan`` confirms the state-level consequence by direct
simulation. Second, a composition of Kraus maps acts as the identity channel
only if every composite Kraus term is itself proportional to the identity;
``check_term_proportionality`` measures the per-term residuals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qcore
from .protocols import MessageState
from .qcore import ATOL, DimensionMismatchError, Ket, Operator

SCAN_MIN = 2
SCAN_MAX = 7


@dataclass(frozen=True)
class PermutationPair:
    """Relative routing permutation on slots 1..n (1-based images)."""

    tau: tuple[int, ...]
    n: int

    def __post_init__(self):
        tau = tuple(int(t) for t in self.tau)
        if sorted(tau) != list(range(1, self.n + 1)):
            raise ValueError(f"{tau} is not a permutation of 1..{self.n}")
        object.__setattr__(self, "tau", tau)

    def image(self, j: int) -> int:
        return self.tau[j - 1]


@dataclass(frozen=True)
class FixedBitWitness:
    """One scanned cell: a bitstring under a permutation, with the first slot
    j satisfying b_j = b_{tau(j)}, or None when no slot qualifies."""

    pair: PermutationPair
    bits: tuple[int, ...]
    index: int | None

    def __post_init__(self):
        if self.index is not None and (
            self.bits[self.index - 1] != self.bits[self.pair.image(self.index) - 1]
        ):
            raise ValueError("witness index does not satisfy b_j = b_tau(j)")


@dataclass(frozen=True)
class NogoReport:
    n: int
    cells: int
    witnessed: int
    counterexamples: tuple[FixedBitWitness, ...]
    witnesses: tuple[FixedBitWitness, ...] | None

    @property
    def counterexample_count(self) -> int:
        return len(self.counterexamples)


def fixed_bit_scan(n: int, keep_witnesses: bool = False) -> NogoReport:
    """Scan every permutation and bitstring for a fixed-bit slot.

    For odd n the report carries no counterexamples; for even n the
    bit-alternating even cycles (e.g. a swap acting on 01) defeat every slot.
    Cells are visited in lexicographic (tau, bits) order. Pass
    ``keep_witnesses=True`` to retain a witness record per cell; this is
    meant for small n, since the scan covers n! * 2**n cells.

    The 2**n bitstrings of one permutation are handled together as the bits
    of an integer, row r being the r-th string in lexicographic order. The
    mask ``agree[j][k]`` holds the rows with b_j == b_k, so a permutation's
    witnessed rows are the OR over j of ``agree[j][perm[j]]``. Witness
    records are built only for the cells that are reported.
    """
    if not SCAN_MIN <= n <= SCAN_MAX:
        raise ValueError(f"scan supports n in {SCAN_MIN}..{SCAN_MAX}, got {n}")
    bit_rows = list(itertools.product((0, 1), repeat=n))
    agree = [
        [
            sum(1 << r for r, bits in enumerate(bit_rows) if bits[j] == bits[k])
            for k in range(n)
        ]
        for j in range(n)
    ]
    every_row = (1 << len(bit_rows)) - 1
    counterexamples: list[FixedBitWitness] = []
    witnesses: list[FixedBitWitness] = []
    cells = 0
    witnessed = 0
    for perm in itertools.permutations(range(n)):
        slot_masks = [agree[j][k] for j, k in enumerate(perm)]
        found = 0
        for mask in slot_masks:
            found |= mask
        cells += len(bit_rows)
        witnessed += found.bit_count()
        if found == every_row and not keep_witnesses:
            continue
        pair = PermutationPair(tuple(p + 1 for p in perm), n)
        for r, bits in enumerate(bit_rows):
            if not found >> r & 1:
                counterexamples.append(FixedBitWitness(pair, bits, None))
            elif keep_witnesses:
                index = next(j for j, mask in enumerate(slot_masks, 1) if mask >> r & 1)
                witnesses.append(FixedBitWitness(pair, bits, index))
    return NogoReport(
        n=n,
        cells=cells,
        witnessed=witnessed,
        counterexamples=tuple(counterexamples),
        witnesses=tuple(witnesses) if keep_witnesses else None,
    )


@dataclass(frozen=True)
class RoutedBranch:
    bits: tuple[int, ...]
    fixed_indices: tuple[int, ...]
    pinned_indices: tuple[int, ...]
    agree: bool


@dataclass(frozen=True)
class RoutedScanReport:
    n: int
    pair: PermutationPair
    message: MessageState
    branches: tuple[RoutedBranch, ...]
    all_agree: bool


def routed_state(pair: PermutationPair, bits: Sequence[int], msg: MessageState) -> Ket:
    """State after controlled routing of a computational carrier string:
    alpha'|b>|0> + beta'|b o tau>|1>, control in the last slot."""
    n = pair.n
    dims = (2,) * (n + 1)
    vec = np.zeros(2 ** (n + 1), dtype=complex)

    def slot(string: Sequence[int], control: int) -> int:
        idx = 0
        for b in string:
            idx = (idx << 1) | int(b)
        return (idx << 1) | control

    routed = tuple(bits[pair.image(j) - 1] for j in range(1, n + 1))
    vec[slot(bits, 0)] += msg.alpha
    vec[slot(routed, 1)] += msg.beta
    return Ket(vec, dims)


def routed_channel_state_scan(
    n: int, tau: PermutationPair, msg: MessageState
) -> RoutedScanReport:
    """Simulate every computational branch of a controlled routing and check
    which receivers end up message-independent.

    A receiver j is pinned when its reduced state equals |b_j><b_j| within
    ``ATOL``; for a non-degenerate message this happens exactly at the
    fixed-bit slots, so the simulation is cross-checked against the
    combinatorial witness on every branch.
    """
    if tau.n != n:
        raise ValueError(f"permutation is on {tau.n} slots, expected {n}")
    if not 1 <= n <= qcore.MAX_RECEIVERS:
        raise ValueError(f"receiver count {n} outside 1..{qcore.MAX_RECEIVERS}")
    branches = []
    all_agree = True
    for bits in itertools.product((0, 1), repeat=n):
        state = routed_state(tau, bits, msg).density()
        fixed = tuple(
            j for j in range(1, n + 1) if bits[j - 1] == bits[tau.image(j) - 1]
        )
        pinned = []
        for j in range(1, n + 1):
            reduced = qcore.partial_trace(state, {j - 1})
            pin = qcore.PROJ1.entries if bits[j - 1] else qcore.PROJ0.entries
            if np.abs(reduced.matrix - pin).max() <= ATOL:
                pinned.append(j)
        agree = set(fixed) <= set(pinned)
        all_agree = all_agree and agree
        branches.append(RoutedBranch(tuple(bits), fixed, tuple(pinned), agree))
    return RoutedScanReport(n, tau, msg, tuple(branches), all_agree)


@dataclass(frozen=True)
class TermVerdict:
    indices: tuple[int, int, int]
    scale: complex
    residual: float


@dataclass(frozen=True)
class ProportionalityReport:
    """Per-term identity-proportionality of a composed Kraus family.

    ``passed`` requires every composite term L_i M_j R_k to sit within
    ``ATOL`` of scale * identity, with the squared scales summing to 1 (the
    completeness of the composite channel concentrated on identity terms).
    """

    terms: tuple[TermVerdict, ...]
    weight_sum: float

    @property
    def max_residual(self) -> float:
        return max(t.residual for t in self.terms)

    @property
    def passed(self) -> bool:
        return self.max_residual < ATOL and abs(self.weight_sum - 1.0) < ATOL


def check_term_proportionality(
    left: Sequence[Operator],
    mid: Sequence[Operator],
    right: Sequence[Operator],
) -> ProportionalityReport:
    """Check every composite term L_i M_j R_k against scale * identity.

    ``right`` acts first (encoding side) and ``left`` last (decoding side).
    The scale is the least-squares fit trace(M)/d; the residual is the
    max-entry deviation from scale * identity.
    """
    if not left or not mid or not right:
        raise DimensionMismatchError("empty Kraus list")
    d = right[0].shape[1]
    for r in right:
        if r.shape[1] != d:
            raise DimensionMismatchError("right Kraus operators disagree on input space")
    for l in left:
        if l.shape[0] != d:
            raise DimensionMismatchError(
                f"composite must map back to dimension {d}, left outputs {l.shape[0]}"
            )
    terms = []
    weight_sum = 0.0
    for i, l in enumerate(left):
        for j, m in enumerate(mid):
            for k, r in enumerate(right):
                composite = (l @ m @ r).entries
                scale = complex(np.trace(composite) / d)
                residual = float(np.abs(composite - scale * np.eye(d)).max())
                weight_sum += abs(scale) ** 2
                terms.append(TermVerdict((i, j, k), scale, residual))
    return ProportionalityReport(tuple(terms), weight_sum)

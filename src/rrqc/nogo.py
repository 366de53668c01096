"""Executable no-go checks.

Two obstructions are made computational here. First, a controlled routing of
n qubit carriers reduces to a relative permutation tau of the slots, and for
odd n every computational bitstring has a slot j with b_j = b_{tau(j)}; that
slot's qubit ends up in a fixed basis state, independent of the routed
message. ``fixed_bit_scan`` checks this exhaustively over all (tau, b) and
reports the cells without such a slot (even n only) as two integer arrays,
their permutations and their bitstrings; ``routed_channel_state_scan``
confirms the state-level consequence by direct simulation. Second, a
composition of Kraus maps acts as the identity channel only if every
composite Kraus term is itself proportional to the identity;
``check_term_proportionality`` measures the per-term residuals of three
stacked Kraus sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qcore
from .protocols import MessageState
from .qcore import ATOL, DimensionMismatchError, Ket

SCAN_MIN = 2
SCAN_MAX = 7


@dataclass(frozen=True)
class PermutationPair:
    """Relative routing permutation on slots 1..n (1-based images)."""

    tau: tuple[int, ...]
    n: int

    def __post_init__(self):
        tau = tuple(map(qcore.as_index, self.tau))
        if sorted(tau) != list(range(1, self.n + 1)):
            raise ValueError(f"{tau} is not a permutation of 1..{self.n}")
        object.__setattr__(self, "tau", tau)

    def image(self, j: int) -> int:
        return self.tau[j - 1]


@dataclass(frozen=True, eq=False)
class NogoReport:
    """The fixed-bit scan at n: ``cells`` scanned, ``witnessed`` of them with
    a fixed slot, and the counterexample cells as the rows of two read-only
    (k, n) integer arrays in lexicographic (tau, bits) order: ``taus`` holds
    each permutation's 1-based images and ``bits`` its bitstring."""

    n: int
    cells: int
    witnessed: int
    taus: np.ndarray
    bits: np.ndarray

    @property
    def counterexample_count(self) -> int:
        return len(self.taus)


@functools.lru_cache(maxsize=None)
def _scan_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tables of the scan at n: the bitstrings as rows of an
    (2**n, n) array, slot 1 the most significant bit; ``packed[j, k]``, the
    rows on which b_j == b_k, eight rows to a byte; and the lexicographic
    (n!, n) permutation array."""
    bits = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    packed = np.packbits(bits.T[:, None, :] == bits.T[None, :, :], axis=-1)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8,
        count=math.factorial(n) * n,
    ).reshape(-1, n)
    tables = (bits, packed, perms)
    for table in tables:
        table.setflags(write=False)
    return tables


def fixed_bit_scan(n: int) -> NogoReport:
    """Scan every permutation and bitstring for a fixed-bit slot.

    For odd n the report carries no counterexamples; for even n the
    bit-alternating even cycles (e.g. a swap acting on 01) defeat every slot.
    The counterexample cells come back as the rows of ``taus`` and ``bits``,
    in lexicographic (tau, bits) order.

    The whole scan is one boolean array ``found[p, r]`` over the n! x 2**n
    cells, p the p-th permutation and r the r-th bitstring in lexicographic
    order, and ``perms`` is the (n!, n) array of permutations. ``found`` is
    the OR over slots j of "b_j == b_perms[p, j] on row r", taken on rows
    packed eight cells to a byte and unpacked once. ``cells`` and
    ``witnessed`` are its size and its count of True cells, and the
    counterexamples are its False cells in row-major order.

    When a counterexample is reported, two array checks run on it: every row
    of ``perms`` is a permutation of 0..n-1, and every reported cell has
    b_j != b_tau(j) at every slot j. Either failing raises ValueError.
    """
    n = qcore.as_index(n)
    if not SCAN_MIN <= n <= SCAN_MAX:
        raise ValueError(f"scan supports n in {SCAN_MIN}..{SCAN_MAX}, got {n}")
    rows = 2**n
    bits, packed, perms = _scan_tables(n)
    found_bits = np.take(packed[0], perms[:, 0], axis=0)
    for j in range(1, n):
        found_bits |= np.take(packed[j], perms[:, j], axis=0)
    found = np.unpackbits(found_bits, axis=-1, count=rows).view(bool)
    witnessed = int(np.count_nonzero(found))
    if witnessed == found.size:
        # every cell witnessed: skip inverting the n! x 2**n array
        none = np.empty((0, n), dtype=perms.dtype)
        none.setflags(write=False)
        return NogoReport(n, found.size, witnessed, none, none)
    if not (np.sort(perms, axis=1) == np.arange(n)).all():
        raise ValueError(f"a row of the scan's table is not a permutation of 0..{n - 1}")
    ps, rs = np.divmod(np.flatnonzero(~found), rows)
    taus, cells = perms[ps], bits[rs]
    if (cells == np.take_along_axis(cells, taus, axis=1)).any():
        raise ValueError("a reported counterexample has a slot j with b_j = b_tau(j)")
    taus += 1
    for table in (taus, cells):
        table.setflags(write=False)
    return NogoReport(n, found.size, witnessed, taus, cells)


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
    left: np.ndarray,
    mid: np.ndarray,
    right: np.ndarray,
) -> ProportionalityReport:
    """Check every composite term L_i M_j R_k against scale * identity.

    The three Kraus sets are stacks of shape (m, out, in) that compose back
    to the input dimension d of ``right``. ``right`` acts first (encoding
    side) and ``left`` last (decoding side). Every term is formed by one
    broadcast product, in (i, j, k) order. The scale is the least-squares fit
    trace(M)/d; the residual is the max-entry deviation from scale * identity.
    """
    for name, stack in (("left", left), ("mid", mid), ("right", right)):
        if not isinstance(stack, np.ndarray) or stack.ndim != 3:
            raise DimensionMismatchError(f"{name} Kraus set is not an (m, out, in) array")
        if not len(stack):
            raise DimensionMismatchError("empty Kraus list")
    d = right.shape[2]
    if left.shape[1] != d:
        raise DimensionMismatchError(
            f"composite must map back to dimension {d}, left outputs {left.shape[1]}"
        )
    if left.shape[2] != mid.shape[1] or mid.shape[2] != right.shape[1]:
        raise DimensionMismatchError(
            f"Kraus sets of shapes {left.shape}, {mid.shape}, {right.shape} do not compose"
        )
    composite = (left[:, None, None] @ mid[None, :, None] @ right[None, None]).reshape(-1, d, d)
    scales = np.trace(composite, axis1=1, axis2=2) / d
    residuals = np.abs(composite - scales[:, None, None] * np.eye(d)).max(axis=(1, 2))
    indices = itertools.product(range(len(left)), range(len(mid)), range(len(right)))
    terms = tuple(
        TermVerdict(ijk, scale, residual)
        for ijk, scale, residual in zip(indices, scales.tolist(), residuals.tolist())
    )
    return ProportionalityReport(terms, sum(abs(t.scale) ** 2 for t in terms))

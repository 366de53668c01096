"""Pauli channels, Choi matrices, and entanglement-breaking certification.

A Pauli channel is stored as the four probabilities (w_I, w_X, w_Y, w_Z) of
conjugating the state by I, X, Y, Z. Kraus amplitudes are the square roots
of these probabilities, so a channel quoted through amplitudes (a_0, ..,
a_3) with unit sum of squares has weights w_l = a_l**2 here. Probabilities
compose linearly under the Pauli multiplication table, which keeps channel
composition free of sign ambiguities. Kraus sets are (m, d_out, d_in)
arrays: ``pauli_kraus`` and ``product_pauli_kraus`` build them and ``choi``
takes one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import qcore
from .qcore import (
    ATOL,
    DensityMatrix,
    DimensionMismatchError,
    Operator,
    ValidityError,
)

#: Tolerance for Pauli-channel weight normalization.
WEIGHT_ATOL = 1e-12

PAULI_LABELS = ("I", "X", "Y", "Z")
_PAULI_MATS = (qcore.I2.entries, qcore.X.entries, qcore.Y.entries, qcore.Z.entries)

# sigma_a sigma_b = i**phase * sigma_c, encoded as (a, b) -> (phase mod 4, c).
_MULT = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (0, 0), (1, 2): (1, 3), (1, 3): (3, 2),
    (2, 0): (0, 2), (2, 1): (3, 3), (2, 2): (0, 0), (2, 3): (1, 1),
    (3, 0): (0, 3), (3, 1): (1, 2), (3, 2): (3, 1), (3, 3): (0, 0),
}


def pauli_product(a: int, b: int) -> tuple[int, int]:
    """Return (i-power phase, index) of the product sigma_a sigma_b."""
    return _MULT[(a, b)]


def paulis_anticommute(a: int, b: int) -> bool:
    return a != b and a != 0 and b != 0


@functools.lru_cache(maxsize=None)
def _string_matrix(labels: tuple[str, ...]) -> np.ndarray:
    mat = np.array([[1.0 + 0j]])
    for label in labels:
        mat = np.kron(mat, _PAULI_MATS[PAULI_LABELS.index(label)])
    mat.setflags(write=False)
    return mat


def pauli_string_matrix(labels: Sequence[str]) -> np.ndarray:
    """Read-only matrix of a tensor product of single-qubit Paulis."""
    labels = tuple(labels)
    if not labels or any(l not in PAULI_LABELS for l in labels):
        raise ValueError(f"invalid Pauli string {labels!r}")
    return _string_matrix(labels)


def pauli_string(labels: Sequence[str]) -> Operator:
    """Tensor product of single-qubit Paulis, e.g. ("Z", "I", "Z")."""
    labels = tuple(labels)
    return Operator(pauli_string_matrix(labels), (2,) * len(labels))


@dataclass(frozen=True)
class PauliChannel:
    """Probabilities of applying I, X, Y, Z respectively."""

    w_i: float
    w_x: float
    w_y: float
    w_z: float

    def __post_init__(self):
        check_pauli_weights(np.array(self.weights))

    @property
    def weights(self) -> tuple[float, float, float, float]:
        return (self.w_i, self.w_x, self.w_y, self.w_z)


def check_pauli_weights(weights: np.ndarray) -> None:
    """Raise ValidityError unless every row of a (..., 4) array of Pauli
    weights has no negative weight and sums to 1 within ``WEIGHT_ATOL``
    (NaN fails); the error names the first failing row."""
    rows = weights.reshape(-1, 4)
    negative = (rows < 0).any(axis=1)
    failed = negative | ~(np.abs(rows.sum(axis=1) - 1.0) <= WEIGHT_ATOL)
    if failed.any():
        t = int(np.argmax(failed))
        row = tuple(rows[t].tolist())
        if negative[t]:
            raise ValidityError(f"negative Pauli weight in {row}")
        raise ValidityError(f"Pauli weights {row} do not sum to 1")


IDENTITY = PauliChannel(1.0, 0.0, 0.0, 0.0)
#: Equal mixture of X and Y conjugation; entanglement-breaking (certified below).
N_XY = PauliChannel(0.0, 0.5, 0.5, 0.0)
FULL_DEPHASING = PauliChannel(0.5, 0.0, 0.0, 0.5)


def pauli_kraus(ch: PauliChannel) -> np.ndarray:
    """Kraus operators sqrt(w_l) sigma_l of the nonzero-weight terms, stacked
    as (m, 2, 2) in I, X, Y, Z order."""
    return np.stack([np.sqrt(w) * mat for w, mat in zip(ch.weights, _PAULI_MATS) if w > 0.0])


def product_pauli_kraus(factors: Sequence[PauliChannel]) -> np.ndarray:
    """Kraus operators of a product of single-qubit Pauli channels, stacked
    as (m, d, d): per string of nonzero-weight labels (first factor slowest),
    the amplitudes sqrt(w_l) multiplied left to right, times the string's
    matrix."""
    terms = [
        [(np.sqrt(w), label) for w, label in zip(ch.weights, PAULI_LABELS) if w > 0.0]
        for ch in factors
    ]
    combos = [tuple(zip(*combo)) for combo in itertools.product(*terms)]
    amps = np.array([math.prod(a) for a, _ in combos])
    return amps[:, None, None] * np.stack([pauli_string_matrix(l) for _, l in combos])


def compose(a: PauliChannel, b: PauliChannel) -> PauliChannel:
    """Sequential composition: apply ``a`` first, then ``b``.

    Phases from the Pauli multiplication table drop out of the conjugation
    weights, so the weights simply convolve through the table.
    """
    out = [0.0, 0.0, 0.0, 0.0]
    for l, wa in enumerate(a.weights):
        if wa == 0.0:
            continue
        for m, wb in enumerate(b.weights):
            _, c = pauli_product(m, l)
            out[c] += wa * wb
    return PauliChannel(*out)


def choi(kraus: np.ndarray) -> DensityMatrix:
    """Apply (channel x identity) to a maximally entangled pair, for an
    (m, d_out, d_in) Kraus stack.

    The result is a state on (output, reference), where the reference has
    the channel's input dimension, normalized to unit trace.
    """
    qcore.check_complete(kraus)
    if kraus.ndim != 3:
        raise DimensionMismatchError(f"need one (m, out, in) Kraus stack, got shape {kraus.shape}")
    count, d_out, d_in = kraus.shape
    flat = kraus.reshape(count, -1)
    mat = np.einsum("ka,kb->ab", flat, flat.conj()) / d_in
    return DensityMatrix.from_matrix(mat, (d_out, d_in))


class EBVerdict(NamedTuple):
    entanglement_breaking: bool
    witness: float  # minimum eigenvalue of the partially transposed Choi matrix


def is_entanglement_breaking_qubit(ch: DensityMatrix) -> EBVerdict:
    """PPT test on a qubit-channel Choi matrix.

    Positivity under partial transposition is equivalent to separability for
    two qubits, so the verdict is exact here. The witness is the minimum
    eigenvalue of the partial transpose; it counts as non-negative down to
    -ATOL.
    """
    if ch.dims != (2, 2):
        raise DimensionMismatchError(f"need a 2x2 Choi matrix, got dims {ch.dims}")
    swapped = ch.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    witness = float(np.linalg.eigvalsh(swapped).min())
    return EBVerdict(witness >= -ATOL, witness)


def random_pauli_channel(rng: np.random.Generator) -> PauliChannel:
    """Uniform draw from the weight simplex via sorted spacings."""
    cuts = np.sort(rng.uniform(size=3))
    weights = np.diff(np.concatenate(([0.0], cuts, [1.0])))
    return PauliChannel(*(float(w) for w in weights))

"""Expected values the benchmark checks rrqc's outputs against.

Nothing here imports rrqc: each value comes from the physics or the
combinatorics directly, so a defect in rrqc cannot also hide in its oracle.
"""

from __future__ import annotations

import math

import numpy as np

#: Tolerance on fidelities, probabilities and deviations (rrqc's own ATOL).
TOL = 1e-9
#: Pauli weights this close to 1/2 sit on the EB boundary within rrqc's
#: tolerance, so the verdict is ambiguous and the draw is repeated.
EB_MARGIN = 1e-6
#: Switch and controlled-ops deliver the message exactly on every branch.
PERFECT_FIDELITY = 1.0
#: The switch protocol costs one classical bit from the control holder.
CONTROL_BITS = 1


def haar_messages(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar-random qubits alpha|0> + beta|1>, one (alpha, beta) row each."""
    vec = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return vec / np.linalg.norm(vec, axis=1, keepdims=True)


def pure_fidelity(alpha: complex, beta: complex, rho) -> float:
    """<psi|rho|psi> for psi = alpha|0> + beta|1>."""
    psi = np.array([alpha, beta])
    return float(np.real(psi.conj() @ np.asarray(rho) @ psi))


def baseline_fidelity(alpha: complex, beta: complex) -> float:
    """Definite-order cascade: both noise layers compose to full dephasing, so
    the target keeps |alpha|^2 |0><0| + |beta|^2 |1><1| on every branch."""
    return abs(alpha) ** 4 + abs(beta) ** 4


def exhaustive_branches(n: int) -> int:
    """One binary outcome per measuring party: the control (or receiver 1's
    computational readout) plus n - 1 Fourier measurements."""
    return 2**n


def flagged_cnots(n: int) -> int:
    """Controlled-ops rebuilds GHZ correlations with one nonlocal CNOT per
    receiver other than the first."""
    return n - 1


def draw_pauli_weights(rng: np.random.Generator) -> tuple[float, ...]:
    """Uniform draw from the Pauli weight simplex, away from the EB boundary."""
    while True:
        weights = tuple(float(w) for w in rng.dirichlet(np.ones(4)))
        if abs(max(weights) - 0.5) > EB_MARGIN:
            return weights


def pauli_entanglement_breaking(weights) -> bool:
    """A qubit Pauli channel is entanglement-breaking iff no weight exceeds 1/2."""
    return max(weights) <= 0.5


def nogo_cells(n: int) -> int:
    """The fixed-bit scan visits every permutation of n slots and every bitstring."""
    return math.factorial(n) * 2**n


def nogo_has_counterexamples(n: int) -> bool:
    """Odd n always has a fixed slot; even n has bit-alternating even cycles."""
    return n % 2 == 0


def validate_comparisons(trials: int) -> int:
    """Records of ``validate-switch`` over n = 1..3: identity and equal-X/Y
    Choi checks per n, ``trials`` input spot checks per n, and ``trials``
    two-party draws at n = 2."""
    return 3 * (2 + trials) + trials

"""The per-branch protocol engine that the batched engine replaced, kept as
the reference for the differential test in ``test_engine_differential.py``.

Each branch is its own validated ``DensityMatrix``. An announcement measures
the announced factor of every branch through ``measure_and_discard``, which
validates every outcome state, and a branch is split into one copy per
outcome (or one drawn outcome) with its own transcript. The switched channel
is applied as the literal sum of w_s sigma_s rho sigma_s over its string
tables. Only the public classes of ``rrqc.protocols`` are shared, so that
transcripts and results compare field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from rrqc import channels, qcore, qswitch
from rrqc.protocols import (
    BROADCAST,
    CONTROL_HOLDER,
    SENDER,
    THIRD_PARTY,
    BranchResult,
    ClassicalMessage,
    LocalMeasurement,
    LocalUnitary,
    MessageState,
    NonlocalOperation,
    OutcomePolicy,
    Party,
    ProtocolResult,
    Transcript,
    ghz_encode,
)
from rrqc.qcore import (
    ATOL,
    PROB_FLOOR,
    CompletenessError,
    DensityMatrix,
    DimensionMismatchError,
    Ket,
    MeasurementOutcome,
    ProjectiveMeasurement,
    ValidityError,
)

_CASCADE_KRAUS = tuple(
    channels.pauli_kraus(channels.compose(channels.N_XY, channels.N_XY))
)

_BASES = {
    "fourier": (qcore.PROJ_PLUS, qcore.PROJ_MINUS),
    "computational": (qcore.PROJ0, qcore.PROJ1),
}


def measure_and_discard(
    rho: DensityMatrix, projectors, factor: int, atol: float = ATOL
) -> ProjectiveMeasurement:
    """Measure one factor and trace it out of every outcome; every outcome
    state, kept or not, is a validated ``DensityMatrix``."""
    dims = rho.dims
    if len(dims) < 2:
        raise DimensionMismatchError("cannot discard the only factor of a register")
    if not 0 <= factor < len(dims):
        raise DimensionMismatchError(f"factor {factor} out of range for {dims}")
    side = dims[factor]
    stack = np.array([p.entries for p in projectors]).reshape(-1, side, side)
    if np.abs(stack.sum(axis=0) - np.eye(side)).max() > atol:
        raise CompletenessError("projectors do not sum to the identity")
    for i, p in enumerate(stack):
        for j, q in enumerate(stack):
            if np.abs(p @ q - (p if i == j else 0.0)).max() > atol:
                raise CompletenessError("projector set is not orthogonal")
    before = math.prod(dims[:factor])
    after = rho.dim // (before * side)
    tensor_form = rho.matrix.reshape(before, side, after, before, side, after)
    remaining = rho.dim // side
    posts = np.einsum("mlk,akbcld->mabcd", stack, tensor_form).reshape(
        len(stack), remaining, remaining
    )
    rest = dims[:factor] + dims[factor + 1 :]
    outcomes, dropped = [], []
    prob_sum = 0.0
    for label, post in enumerate(posts):
        prob = float(np.real(np.trace(post)))
        prob_sum += prob
        if prob < PROB_FLOOR:
            dropped.append(label)
            continue
        post = (post + post.conj().T) / 2 / prob
        outcomes.append(
            MeasurementOutcome(label, prob, DensityMatrix.from_matrix(post, rest))
        )
    if abs(prob_sum - 1.0) > atol:
        raise ValidityError(f"outcome probabilities sum to {prob_sum}, not 1")
    return ProjectiveMeasurement(tuple(outcomes), tuple(dropped))


def switched_apply(sw: qswitch.SwitchedChannel, rho: DensityMatrix) -> DensityMatrix:
    """The switched channel as the literal sum over its string tables."""
    mat = rho.matrix
    out = np.zeros((mat.shape[0] * 2, mat.shape[1] * 2), dtype=complex)
    for prob, table, omega in (
        (sw.p_plus, sw.plus_strings, sw.omega_plus),
        (sw.p_minus, sw.minus_strings, sw.omega_minus),
    ):
        if prob <= 0.0:
            continue
        branch = np.zeros_like(mat)
        for s, w in table.items():
            sigma = channels.pauli_string_matrix(s)
            branch += w * (sigma @ mat @ sigma)
        out += np.kron(prob * branch, omega.matrix)
    out = (out + out.conj().T) / 2
    return DensityMatrix.from_matrix(out, rho.dims + (2,))


@dataclass
class _Branch:
    state: DensityMatrix
    probability: float
    outcomes: dict[str, int]
    transcript: Transcript
    live: tuple[int, ...]

    def position(self, factor: int) -> int:
        return self.live.index(factor)


@dataclass(frozen=True)
class _Announcement:
    party: Party
    factor: int
    basis: str
    key: str
    recipient: Union[int, str]
    corrections: tuple[LocalUnitary, ...] = ()


def _start(state: DensityMatrix, allow_nonlocal: bool = False) -> _Branch:
    transcript = Transcript(allow_nonlocal=allow_nonlocal)
    return _Branch(state, 1.0, {}, transcript, tuple(range(len(state.dims))))


def _receivers(n: int) -> dict[int, Party]:
    return {i: Party(i, frozenset({i - 1})) for i in range(1, n + 1)}


def _apply_cnot(branch: _Branch, gate) -> None:
    branch.transcript.record(gate)
    control, target = gate.factors
    perm = qcore.cnot_permutation(
        len(branch.live), branch.position(control), branch.position(target)
    )
    state = branch.state
    branch.state = DensityMatrix.from_matrix(
        state.matrix[perm][:, perm], state.dims
    )


def _apply_local(branch: _Branch, gate: LocalUnitary) -> None:
    branch.transcript.record(gate)
    (factor,) = gate.factors
    branch.state = qcore.apply_kraus(
        branch.state, [gate.operator], factor=branch.position(factor)
    )


def _announce(branches, step: _Announcement, rng):
    new = []
    for br in branches:
        measured = measure_and_discard(br.state, _BASES[step.basis], br.position(step.factor))
        live = tuple(f for f in br.live if f != step.factor)
        if rng is None:
            chosen = list(measured.outcomes)
        else:
            probs = np.array([o.probability for o in measured.outcomes])
            pick = rng.choice(len(measured.outcomes), p=probs / probs.sum())
            chosen = [measured.outcomes[pick]]
        for outcome in chosen:
            transcript = br.transcript.copy() if len(chosen) > 1 else br.transcript
            transcript.record(
                LocalMeasurement(step.party, (step.factor,), step.basis, outcome.label)
            )
            transcript.record(ClassicalMessage(step.party.id, step.recipient, (outcome.label,)))
            child = _Branch(
                outcome.state,
                br.probability * outcome.probability,
                {**br.outcomes, step.key: outcome.label},
                transcript,
                live,
            )
            if outcome.label == 1:
                for gate in step.corrections:
                    _apply_local(child, gate)
            new.append(child)
    return new


def _run(msg, n, x, policy, start, parties, carriers=None, announcements=()):
    rng = np.random.default_rng(policy.seed) if policy.kind == "sample" else None
    if carriers is None:
        carriers = {y: y - 1 for y in parties}
    retrieval = tuple(
        _Announcement(parties[y], carriers[y], "fourier", f"B{y}", x)
        for y in range(1, n + 1)
        if y != x
    )
    branches = [start]
    for step in announcements + retrieval:
        branches = _announce(branches, step, rng)
    target = msg.ket()
    z_at_target = LocalUnitary(parties[x], (carriers[x],), qcore.Z, "Z")
    results = []
    for br in branches:
        if sum(br.outcomes[step.key] for step in retrieval) % 2:
            _apply_local(br, z_at_target)
        reduced = qcore.partial_trace(br.state, {br.position(carriers[x])})
        results.append(
            BranchResult(
                probability=br.probability,
                outcomes=dict(br.outcomes),
                fidelity=qcore.fidelity_pure(target, reduced),
                final_state=reduced,
                transcript=br.transcript,
            )
        )
    return ProtocolResult(msg, n, x, policy, tuple(results))


def run_noiseless_protocol(msg: MessageState, n: int, x: int, policy: OutcomePolicy):
    start = _start(ghz_encode(msg, n).density())
    return _run(msg, n, x, policy, start, _receivers(n))


def run_switch_protocol(msg: MessageState, n: int, x: int, policy: OutcomePolicy):
    parties = _receivers(n)
    state = switched_apply(qswitch.closed_form_nxy_n(n), ghz_encode(msg, n).density())
    control = _Announcement(
        Party(CONTROL_HOLDER, frozenset({n})),
        n,
        "fourier",
        "control",
        BROADCAST,
        (LocalUnitary(parties[1], (0,), qcore.Z, "Z"),),
    )
    return _run(msg, n, x, policy, _start(state), parties, announcements=(control,))


def run_definite_order_baseline(msg: MessageState, n: int, x: int, policy: OutcomePolicy):
    state = ghz_encode(msg, n).density()
    for k in range(n):
        state = qcore.apply_kraus(state, _CASCADE_KRAUS, factor=k)
    return _run(msg, n, x, policy, _start(state), _receivers(n))


def run_controlled_ops_protocol(msg: MessageState, n: int, x: int, policy: OutcomePolicy):
    parties = _receivers(n)
    parties[1] = Party(1, frozenset({0, n}))
    sender = Party(SENDER, frozenset(range(n + 1)))
    vec = np.zeros(2 ** (n - 1), dtype=complex)
    vec[0] = 1.0
    amplitudes = np.kron(np.kron(msg.ket().amplitudes, vec), qcore.KET_PLUS.amplitudes)
    branch = _start(Ket(amplitudes, (2,) * (n + 1)).density(), allow_nonlocal=True)
    _apply_cnot(branch, LocalUnitary(sender, (n, 0), qcore.CNOT, "CNOT"))
    for k in range(n):
        branch.state = qcore.apply_kraus(
            branch.state, _CASCADE_KRAUS, factor=branch.position(k)
        )
    for k in range(1, n):
        _apply_cnot(branch, NonlocalOperation(THIRD_PARTY, (n, k), qcore.CNOT, "CNOT"))
    flips = [LocalUnitary(parties[k], (k - 1,), qcore.X, "X") for k in range(2, n + 1)]
    flips.append(LocalUnitary(parties[1], (n,), qcore.X, "X"))
    readout = _Announcement(parties[1], 0, "computational", "B1_bit", BROADCAST, tuple(flips))
    carriers = {1: n} | {k: k - 1 for k in range(2, n + 1)}
    return _run(msg, n, x, policy, branch, parties, carriers, (readout,))


#: Reference runner of each variant, keyed by the CLI's variant name.
RUNNERS = {
    "noiseless": run_noiseless_protocol,
    "switch": run_switch_protocol,
    "baseline": run_definite_order_baseline,
    "controlled-ops": run_controlled_ops_protocol,
}

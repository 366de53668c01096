"""LOCC protocol stack for random-receiver quantum communication.

A run simulates the density matrix of the receivers' qubits (plus, where
present, the order control as the last tensor factor), enumerating or
sampling measurement-outcome branches. Transcripts record every local
operation and classical message. Locality is enforced when events are
constructed: a LocalUnitary or LocalMeasurement whose factors are not all
owned by its party raises LocalityError, and NonlocalOperation events are
rejected unless the protocol's transcript explicitly declares them.

A measured qubit is never touched again, so each branch traces it out as
soon as its outcome is known (``qcore.measure_and_discard``; the public
``qcore.measure_projective`` keeps every factor) and carries only its live
factors. Gates act on one factor at a time, and CNOTs permute basis indices.
Events always name the original factors. Every intermediate state is still a
validated ``DensityMatrix``.

Every variant is a distribution stage plus announced measurements. Its
``run_*`` function builds the carrier state, the parties and which factor
each receiver holds, and lists its own announcements: one party measures one
factor, reports the bit, and on outcome 1 listed parties apply local
corrections. One interpreter (``_run``) resolves the outcome policy, runs
those announcements and then the GHZ retrieval shared by all protocols:
every receiver other than the target x announces its carrier in the |+>/|->
basis to x, and x applies Z raised to the outcome sum. Receiver i owns
tensor factor i - 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import channels, qcore, qswitch
from .qcore import (
    ATOL,
    MAX_RECEIVERS,
    DensityMatrix,
    Ket,
    Operator,
    ValidityError,
)

SENDER = "SENDER"
CONTROL_HOLDER = "CONTROL-HOLDER"
THIRD_PARTY = "THIRD-PARTY"
BROADCAST = "ALL"


class LocalityError(ValueError):
    """An operation spans factors its party does not own."""


@dataclass(frozen=True)
class MessageState:
    """Qubit message alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > ATOL:
            raise ValidityError(f"message norm {norm} is not 1")

    def ket(self) -> Ket:
        return Ket([self.alpha, self.beta], (2,))

    @classmethod
    def zero(cls) -> "MessageState":
        return cls(1.0, 0.0)

    @classmethod
    def plus(cls) -> "MessageState":
        return cls(1 / np.sqrt(2), 1 / np.sqrt(2))


def haar_message(rng: np.random.Generator) -> MessageState:
    """Haar-random qubit message (normalized complex Gaussian pair)."""
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec /= np.linalg.norm(vec)
    return MessageState(complex(vec[0]), complex(vec[1]))


@dataclass(frozen=True)
class Party:
    """A protocol participant and the tensor factors it may touch."""

    id: Union[int, str]
    owned_factors: frozenset[int]


@dataclass(frozen=True)
class LocalUnitary:
    party: Party
    factors: tuple[int, ...]
    operator: Operator
    label: str = ""

    def __post_init__(self):
        if not set(self.factors) <= self.party.owned_factors:
            raise LocalityError(
                f"party {self.party.id} does not own all of factors {self.factors}"
            )


@dataclass(frozen=True)
class LocalMeasurement:
    party: Party
    factors: tuple[int, ...]
    basis: str
    outcome: int

    def __post_init__(self):
        if not set(self.factors) <= self.party.owned_factors:
            raise LocalityError(
                f"party {self.party.id} does not own all of factors {self.factors}"
            )


@dataclass(frozen=True)
class ClassicalMessage:
    sender: Union[int, str]
    recipient: Union[int, str]
    bits: tuple[int, ...]


@dataclass(frozen=True)
class NonlocalOperation:
    """Joint operation a spatially separated party set could not perform;
    admitted only in protocols that declare it, and always flagged."""

    actor: Union[int, str]
    factors: tuple[int, ...]
    operator: Operator
    label: str = ""
    flagged: bool = True


Event = Union[LocalUnitary, LocalMeasurement, ClassicalMessage, NonlocalOperation]


@dataclass
class Transcript:
    """Ordered event log of one protocol branch."""

    events: list[Event] = field(default_factory=list)
    allow_nonlocal: bool = False

    def record(self, event: Event) -> None:
        if isinstance(event, NonlocalOperation) and not self.allow_nonlocal:
            raise LocalityError("this protocol does not declare nonlocal operations")
        self.events.append(event)

    def copy(self) -> "Transcript":
        return Transcript(list(self.events), self.allow_nonlocal)

    def nonlocal_events(self) -> list[NonlocalOperation]:
        return [e for e in self.events if isinstance(e, NonlocalOperation)]

    def classical_messages(self, sender=None) -> list[ClassicalMessage]:
        return [
            e
            for e in self.events
            if isinstance(e, ClassicalMessage) and (sender is None or e.sender == sender)
        ]

    def classical_bits_from(self, sender) -> int:
        return sum(len(m.bits) for m in self.classical_messages(sender))


@dataclass(frozen=True)
class OutcomePolicy:
    """How measurement outcomes are resolved: full branch enumeration or a
    single seeded sampled trajectory."""

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("exhaustive", "sample"):
            raise ValueError(f"unknown outcome policy {self.kind!r}")
        if self.kind == "sample" and self.seed is None:
            raise ValueError("sampling requires a seed")

    @classmethod
    def exhaustive(cls) -> "OutcomePolicy":
        return cls("exhaustive")

    @classmethod
    def sample(cls, seed: int) -> "OutcomePolicy":
        return cls("sample", seed)


@dataclass(frozen=True)
class BranchResult:
    probability: float
    outcomes: dict[str, int]
    fidelity: float
    final_state: DensityMatrix
    transcript: Transcript


@dataclass(frozen=True)
class ProtocolResult:
    """All enumerated (or the single sampled) outcome branches of one run."""

    message: MessageState
    n: int
    x: int
    policy: OutcomePolicy
    branches: tuple[BranchResult, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValidityError("protocol produced no branches")
        for br in self.branches:
            if br.fidelity < 0.0 or br.fidelity > 1.0 + ATOL:
                raise ValidityError(f"branch fidelity {br.fidelity} outside [0, 1]")
        if self.policy.kind == "exhaustive":
            total = sum(br.probability for br in self.branches)
            if abs(total - 1.0) > ATOL:
                raise ValidityError(f"branch probabilities sum to {total}, not 1")

    @property
    def fidelity(self) -> float:
        weight = sum(br.probability for br in self.branches)
        return sum(br.probability * br.fidelity for br in self.branches) / weight

    @property
    def min_fidelity(self) -> float:
        return min(br.fidelity for br in self.branches)


# ---------------------------------------------------------------------------
# simulation engine
# ---------------------------------------------------------------------------

#: Kraus set of the definite-order cascade on one qubit: the equal-X/Y
#: mixture composed with itself, i.e. full dephasing.
_CASCADE_KRAUS = tuple(
    channels.pauli_kraus(channels.compose(channels.N_XY, channels.N_XY))
)

#: Projectors of each announced measurement basis, outcome 0 first.
_BASES = {
    "fourier": (qcore.PROJ_PLUS, qcore.PROJ_MINUS),
    "computational": (qcore.PROJ0, qcore.PROJ1),
}


@functools.lru_cache(maxsize=MAX_RECEIVERS)
def _switched_nxy(n: int) -> qswitch.SwitchedChannel:
    """The default-control switched channel, built once per receiver count."""
    return qswitch.closed_form_nxy_n(n)


@dataclass
class _Branch:
    """One outcome branch. ``live`` lists the original factor ids still in
    the register, in register order; measured factors have been traced out.
    Events keep the original ids, ``position`` maps them into ``state``."""

    state: DensityMatrix
    probability: float
    outcomes: dict[str, int]
    transcript: Transcript
    live: tuple[int, ...]

    def position(self, factor: int) -> int:
        return self.live.index(factor)


@dataclass(frozen=True)
class _Announcement:
    """``party`` measures ``factor`` in ``basis``, reports the bit under
    ``key`` to ``recipient`` and, on outcome 1, applies ``corrections``."""

    party: Party
    factor: int
    basis: str
    key: str
    recipient: Union[int, str]
    corrections: tuple[LocalUnitary, ...] = ()


def _start(state: DensityMatrix, allow_nonlocal: bool = False) -> _Branch:
    transcript = Transcript(allow_nonlocal=allow_nonlocal)
    return _Branch(state, 1.0, {}, transcript, tuple(range(len(state.dims))))


def _check_run_args(n: int, x: int) -> None:
    if not 1 <= n <= MAX_RECEIVERS:
        raise ValueError(f"receiver count {n} outside 1..{MAX_RECEIVERS}")
    if not 1 <= x <= n:
        raise ValueError(f"target {x} outside 1..{n}")


def _receivers(n: int) -> dict[int, Party]:
    return {i: Party(i, frozenset({i - 1})) for i in range(1, n + 1)}


def _apply_cnot(branch: _Branch, gate: Union[LocalUnitary, NonlocalOperation]) -> None:
    """Record ``gate``, a CNOT on (control, target) = ``gate.factors``, and
    apply it as a basis-index permutation."""
    branch.transcript.record(gate)
    control, target = gate.factors
    perm = qcore.cnot_permutation(
        len(branch.live), branch.position(control), branch.position(target)
    )
    state = branch.state
    branch.state = DensityMatrix.from_matrix(
        state.matrix[perm][:, perm], state.dims, state.tolerance
    )


def _apply_local(branch: _Branch, gate: LocalUnitary) -> None:
    branch.transcript.record(gate)
    (factor,) = gate.factors
    branch.state = qcore.apply_kraus(
        branch.state, [gate.operator], factor=branch.position(factor)
    )


def _announce(
    branches: list[_Branch], step: _Announcement, rng: np.random.Generator | None
) -> list[_Branch]:
    """Run one announcement on every branch: all outcomes without ``rng``,
    one drawn outcome with it."""
    new: list[_Branch] = []
    for br in branches:
        measured = qcore.measure_and_discard(
            br.state, _BASES[step.basis], br.position(step.factor)
        )
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


def _run(
    msg: MessageState,
    n: int,
    x: int,
    outcome_policy: OutcomePolicy | None,
    start: _Branch,
    parties: dict[int, Party],
    carriers: dict[int, int] | None = None,
    announcements: tuple[_Announcement, ...] = (),
) -> ProtocolResult:
    """Run a distributed carrier to the end: the variant's announcements,
    then the GHZ retrieval at ``x``.

    Receiver y's carrier is factor ``carriers[y]`` (default y - 1). Every
    receiver other than ``x`` announces its carrier in the Fourier basis to
    ``x``, which applies Z raised to the sum of those bits.
    """
    policy = OutcomePolicy.exhaustive() if outcome_policy is None else outcome_policy
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


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


def ghz_encode(msg: MessageState, n: int) -> Ket:
    """Generalized GHZ encoding alpha|0...0> + beta|1...1> on n qubits."""
    if not 1 <= n <= MAX_RECEIVERS:
        raise ValueError(f"receiver count {n} outside 1..{MAX_RECEIVERS}")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = msg.alpha
    vec[-1] = msg.beta
    return Ket(vec, (2,) * n)


def run_noiseless_protocol(
    msg: MessageState, n: int, x: int, outcome_policy: OutcomePolicy | None = None
) -> ProtocolResult:
    """GHZ distribution over noiseless channels plus LOCC retrieval at x."""
    _check_run_args(n, x)
    start = _start(ghz_encode(msg, n).density())
    return _run(msg, n, x, outcome_policy, start, _receivers(n))


def run_switch_protocol(
    msg: MessageState, n: int, x: int, outcome_policy: OutcomePolicy | None = None
) -> ProtocolResult:
    """Distribution through the switched equal-X/Y noise, unlocked by one
    measurement on the order control.

    The control holder measures the order qubit in the |+>/|-> basis and
    broadcasts the bit; on the minus outcome receiver 1 applies Z, which maps
    the odd-Z-string branch channel onto the even one. The GHZ carrier is
    invariant under even Z strings, so the usual retrieval then succeeds on
    every branch.
    """
    _check_run_args(n, x)
    parties = _receivers(n)
    state = _switched_nxy(n).apply(ghz_encode(msg, n).density())
    control = _Announcement(
        Party(CONTROL_HOLDER, frozenset({n})),
        n,
        "fourier",
        "control",
        BROADCAST,
        (LocalUnitary(parties[1], (0,), qcore.Z, "Z"),),
    )
    return _run(
        msg, n, x, outcome_policy, _start(state), parties, announcements=(control,)
    )


def run_definite_order_baseline(
    msg: MessageState, n: int, x: int, outcome_policy: OutcomePolicy | None = None
) -> ProtocolResult:
    """Same pipeline with the two noise layers cascaded in a fixed order.

    Each qubit then sees the composition of the equal-X/Y mixture with
    itself, i.e. full dephasing; no control qubit exists, so nothing can be
    corrected and the reported fidelity is degraded for non-classical
    messages.
    """
    _check_run_args(n, x)
    state = ghz_encode(msg, n).density()
    for k in range(n):
        state = qcore.apply_kraus(state, _CASCADE_KRAUS, factor=k)
    return _run(msg, n, x, outcome_policy, _start(state), _receivers(n))


def run_controlled_ops_protocol(
    msg: MessageState, n: int, x: int, outcome_policy: OutcomePolicy | None = None
) -> ProtocolResult:
    """Definite-order protocol that bypasses the noise with controlled gates.

    The sender entangles the message with a |+> control via CNOT, sends the
    message plus n - 1 blank qubits through the cascaded noise (full
    dephasing), and CNOTs from the control onto the blanks rebuild GHZ
    correlations. Those CNOTs span separated receivers, so they are recorded
    as flagged NonlocalOperation events attributed to a third party. Receiver
    1 then reads out its (dephased) qubit, everyone bit-flips on outcome 1,
    and the control takes receiver 1's place as a GHZ carrier for the usual
    retrieval.
    """
    _check_run_args(n, x)
    parties = _receivers(n)
    # receiver 1 also ends up holding the control qubit (last factor)
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
    return _run(msg, n, x, outcome_policy, branch, parties, carriers, (readout,))

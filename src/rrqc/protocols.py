"""LOCC protocol stack for random-receiver quantum communication.

A run simulates the density matrix of the receivers' qubits (plus, where
present, the order control as the last tensor factor), enumerating or
sampling measurement-outcome branches. Transcripts record every local
operation and classical message. Locality is enforced when events and
transcripts are constructed: a LocalUnitary or LocalMeasurement whose
factors are not all owned by its party raises LocalityError, and so does a
Transcript holding a NonlocalOperation unless it declares them
(``allow_nonlocal``).

One run holds all of its live branches as one (B, d, d) stack of states,
with a probability and a tuple of outcome bits per branch. A measured
qubit is never touched again, so each announcement measures it on the whole
stack and traces it out (``qcore.project_and_discard``), giving up to two
children per branch, parent-major with outcome 0 first. Gates act on one
factor of the whole stack at a time, and CNOTs permute basis indices.
Every stack the engine produces, after every gate, cascade, correction and
measurement, passes ``qcore.check_states``: finite, Hermitian, unit trace
and positive semidefinite. Each branch's transcript is built once, at the
end, from the shared distribution prefix and the branch's bits, and its
construction runs the nonlocal guard; events always name the original
factors.

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
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import channels, qcore, qswitch
from .qcore import (
    ATOL,
    MAX_RECEIVERS,
    PROB_FLOOR,
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
        if not abs(norm - 1.0) <= ATOL:  # NaN fails too
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
        if not self.operator.is_square or qcore.kraus_defect([self.operator]) > ATOL:
            raise ValidityError(f"operator {self.label!r} is not unitary")


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


@dataclass(frozen=True)
class Transcript:
    """Ordered event log of one protocol branch. NonlocalOperation events are
    admitted only when the transcript declares them."""

    events: tuple[Event, ...] = ()
    allow_nonlocal: bool = False

    def __post_init__(self):
        # held as a tuple, so no event can be added after the guard has run
        object.__setattr__(self, "events", tuple(self.events))
        if not self.allow_nonlocal and self.nonlocal_events():
            raise LocalityError("this protocol does not declare nonlocal operations")

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

def _cascade_kraus() -> tuple[np.ndarray, ...]:
    """Kraus entries of the definite-order cascade on one qubit: the equal-X/Y
    mixture composed with itself, i.e. full dephasing. Its completeness is
    checked here, once, not on every use."""
    kraus = channels.pauli_kraus(channels.compose(channels.N_XY, channels.N_XY))
    qcore.check_complete(kraus, "cascade Kraus set")
    return tuple(k.entries for k in kraus)


_CASCADE_KRAUS = _cascade_kraus()

#: Projectors of each announced measurement basis, outcome 0 first, checked
#: once by ``projector_set``.
_BASES = {
    "fourier": qcore.projector_set((qcore.PROJ_PLUS, qcore.PROJ_MINUS)),
    "computational": qcore.projector_set((qcore.PROJ0, qcore.PROJ1)),
}


@functools.lru_cache(maxsize=MAX_RECEIVERS)
def _switched_nxy(n: int) -> qswitch.SwitchedChannel:
    """The default-control switched channel, built once per receiver count."""
    return qswitch.closed_form_nxy_n(n)


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

    def events(self, outcome: int) -> tuple[Event, ...]:
        """The transcript events of this step on one outcome."""
        heard = (
            LocalMeasurement(self.party, (self.factor,), self.basis, outcome),
            ClassicalMessage(self.party.id, self.recipient, (outcome,)),
        )
        return heard + self.corrections if outcome else heard


class _Batch:
    """Every live branch of one run, as one (B, d, d) stack of states.

    ``live`` lists the original factor ids still in the register, in
    register order. It is shared by all branches, because every branch
    measures the same factor at each step; events keep the original ids and
    ``position`` maps them into the register. ``bits[b]`` holds branch b's
    announced outcomes, one per announcement so far; ``prefix`` holds the
    events of the distribution stage, which every branch shares, and
    ``allow_nonlocal`` whether its transcripts declare nonlocal events. Every
    stack the batch produces passes ``qcore.check_states``.
    """

    def __init__(self, state: DensityMatrix, allow_nonlocal: bool = False):
        self.states = state.matrix[None]
        self.dims = state.dims
        self.live = tuple(range(len(state.dims)))
        self.probabilities = np.ones(1)
        self.bits: list[tuple[int, ...]] = [()]
        self.prefix: tuple[Event, ...] = ()
        self.allow_nonlocal = allow_nonlocal

    def position(self, factor: int) -> int:
        return self.live.index(factor)

    def _checked(self, states: np.ndarray) -> np.ndarray:
        qcore.check_states(states)
        return states

    def cnot(self, gate: Union[LocalUnitary, NonlocalOperation]) -> None:
        """Add ``gate``, a CNOT on (control, target) = ``gate.factors``, to the
        prefix and apply it to every branch as a basis-index permutation."""
        self.prefix += (gate,)
        control, target = gate.factors
        perm = qcore.cnot_permutation(
            len(self.live), self.position(control), self.position(target)
        )
        self.states = self._checked(self.states[:, perm][:, :, perm])

    def cascade(self, factor: int) -> None:
        """Send ``factor`` through the definite-order cascade (not an event)."""
        self.states = self._checked(
            qcore.local_channel(self.states, _CASCADE_KRAUS, self.position(factor), self.dims)
        )

    def correct(self, gate: LocalUnitary, rows: np.ndarray) -> None:
        """Apply a single-factor unitary to the branches ``rows``."""
        (factor,) = gate.factors
        self.states[rows] = self._checked(
            qcore.local_channel(
                self.states[rows], (gate.operator.entries,), self.position(factor), self.dims
            )
        )

    def announce(self, step: _Announcement, rng: np.random.Generator | None) -> None:
        """Measure and discard ``step.factor`` on every branch. Without ``rng``
        every outcome above ``PROB_FLOOR`` becomes a child, parent-major with
        outcome 0 first; with it each parent draws one child before any child
        state is renormalized."""
        index = self.position(step.factor)
        probs, posts = qcore.project_and_discard(
            self.states, _BASES[step.basis], index, self.dims
        )
        if rng is None:
            parents, labels = np.nonzero(probs >= PROB_FLOOR)
        else:
            parents = np.arange(len(probs))
            labels = np.empty_like(parents)
            for b, row in enumerate(probs):
                (alive,) = np.nonzero(row >= PROB_FLOOR)
                kept = row[alive]
                labels[b] = alive[rng.choice(len(alive), p=kept / kept.sum())]
        chosen = probs[parents, labels]
        self.live = self.live[:index] + self.live[index + 1 :]
        self.dims = self.dims[:index] + self.dims[index + 1 :]
        self.states = self._checked(qcore.renormalize(posts[parents, labels], chosen))
        self.probabilities = self.probabilities[parents] * chosen
        self.bits = [self.bits[p] + (l,) for p, l in zip(parents.tolist(), labels.tolist())]
        (ones,) = np.nonzero(labels == 1)
        if ones.size:
            for gate in step.corrections:
                self.correct(gate, ones)


def _check_run_args(n: int, x: int) -> None:
    if not 1 <= n <= MAX_RECEIVERS:
        raise ValueError(f"receiver count {n} outside 1..{MAX_RECEIVERS}")
    if not 1 <= x <= n:
        raise ValueError(f"target {x} outside 1..{n}")


def _receivers(n: int) -> dict[int, Party]:
    return {i: Party(i, frozenset({i - 1})) for i in range(1, n + 1)}


def _run(
    msg: MessageState,
    n: int,
    x: int,
    outcome_policy: OutcomePolicy | None,
    batch: _Batch,
    parties: dict[int, Party],
    carriers: dict[int, int] | None = None,
    announcements: tuple[_Announcement, ...] = (),
) -> ProtocolResult:
    """Run a distributed carrier to the end: the variant's announcements,
    then the GHZ retrieval at ``x``.

    Receiver y's carrier is factor ``carriers[y]`` (default y - 1). Every
    receiver other than ``x`` announces its carrier in the Fourier basis to
    ``x``, which applies Z raised to the sum of those bits. Transcripts are
    built at the end from the shared prefix and each branch's outcome bits.
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
    steps = announcements + retrieval
    for step in steps:
        batch.announce(step, rng)
    z_at_target = LocalUnitary(parties[x], (carriers[x],), qcore.Z, "Z")
    odd = [sum(bits[len(announcements) :]) % 2 == 1 for bits in batch.bits]
    (odd_rows,) = np.nonzero(odd)
    if odd_rows.size:
        batch.correct(z_at_target, odd_rows)

    events = [(step.events(0), step.events(1)) for step in steps]
    target = msg.ket()
    results = []
    for state, probability, bits, flip in zip(
        batch.states, batch.probabilities, batch.bits, odd
    ):
        heard = (event for pair, bit in zip(events, bits) for event in pair[bit])
        transcript = Transcript(
            (*batch.prefix, *heard, *((z_at_target,) if flip else ())), batch.allow_nonlocal
        )
        # the retrieval has discarded every factor but x's carrier
        final = DensityMatrix.from_matrix(state, batch.dims)
        results.append(
            BranchResult(
                probability=float(probability),
                outcomes={step.key: bit for step, bit in zip(steps, bits)},
                fidelity=qcore.fidelity_pure(target, final),
                final_state=final,
                transcript=transcript,
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
    batch = _Batch(ghz_encode(msg, n).density())
    return _run(msg, n, x, outcome_policy, batch, _receivers(n))


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
        msg, n, x, outcome_policy, _Batch(state), parties, announcements=(control,)
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
    batch = _Batch(ghz_encode(msg, n).density())
    for k in range(n):
        batch.cascade(k)
    return _run(msg, n, x, outcome_policy, batch, _receivers(n))


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
    batch = _Batch(Ket(amplitudes, (2,) * (n + 1)).density(), allow_nonlocal=True)

    batch.cnot(LocalUnitary(sender, (n, 0), qcore.CNOT, "CNOT"))
    for k in range(n):
        batch.cascade(k)
    for k in range(1, n):
        batch.cnot(NonlocalOperation(THIRD_PARTY, (n, k), qcore.CNOT, "CNOT"))

    flips = [LocalUnitary(parties[k], (k - 1,), qcore.X, "X") for k in range(2, n + 1)]
    flips.append(LocalUnitary(parties[1], (n,), qcore.X, "X"))
    readout = _Announcement(parties[1], 0, "computational", "B1_bit", BROADCAST, tuple(flips))
    carriers = {1: n} | {k: k - 1 for k in range(2, n + 1)}
    return _run(msg, n, x, outcome_policy, batch, parties, carriers, (readout,))

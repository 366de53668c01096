"""LOCC protocol stack for random-receiver quantum communication.

A run simulates the density matrix of the receivers' qubits (plus, where
present, the order control as the last tensor factor), enumerating or
sampling measurement-outcome branches. Transcripts record every local
operation and classical message. Locality is enforced when events and
transcripts are constructed: a LocalUnitary or LocalMeasurement whose
factors are not all owned by its party raises LocalityError, and so does a
Transcript holding a NonlocalOperation unless it declares them
(``allow_nonlocal``).

One record (``_Batch``) carries a run from start to end. Each variant's
stage function creates it with the carrier state, the parties and which
factor each receiver's carrier is (receiver i holds factor i - 1 unless the
stage says otherwise), and then runs the variant's own announcements on it:
one party measures one factor, reports the bit, and on outcome 1 listed
parties apply local corrections. ``_retrieve`` then runs the GHZ retrieval
shared by all protocols on a copy of the batch: every receiver other than
the target x announces its carrier in the |+>/|-> basis to x, and x applies
Z raised to the outcome sum.

The batch holds all of its live branches as one (B, d, d) stack of states.
A measured qubit is never touched again, so each announcement measures it
on the whole stack and traces it out (``qcore.project_and_discard``), giving
up to two children per branch, parent-major with outcome 0 first; the batch
records the announcement and the new level of its branch tree, every
branch's outcome bits and probability. Gates act on one factor of the whole
stack at a time, and CNOTs permute basis indices. Each branch's transcript
is built once, at the end, from the shared distribution prefix, the steps
and the branch's bits, and its construction runs the nonlocal guard; events
always name the original factors.

Every protocol is linear in the message up to the final renormalization, so
each (variant, n, x) is a fixed set of qubit maps E_b, one per branch
(``BranchMap``). ``branch_map`` builds them once per key and keeps them for
the process: it runs the engine, every branch enumerated, on four messages
whose density matrices span the qubit operators, one message at a time. A
stage's batch does not depend on x, so ``branch_maps`` retrieves the maps of
several x of one (variant, n) from one stage batch per message; each x's
four retrieved batches give its branch tree, from their levels, and each E_b,
from their unnormalized final states. A key's first use thus costs four
engine runs where a direct run on one message costs one; the maps pay off
when a process evaluates several messages for the same key, or, through
``branch_maps``, several x.
Every ``run_*`` call evaluates its message through the maps: p_b =
Tr E_b(psi), the final state E_b(psi) / p_b and its fidelity, for all
branches at once, and ``BranchMap.evaluate_many`` does so for many messages
in the same array operations. A branch is dropped where a conditional
probability along its path falls below ``PROB_FLOOR``, as the engine drops
it, and a sampled run draws one branch by a seeded walk down the same tree:
one ``rng.random()`` per announcement, compared in Python floats with the
outcomes whose conditional probability reaches ``PROB_FLOOR`` exactly as
``rng.choice`` over them would compare it, so a seed draws the branch it drew
through ``rng.choice``. ``evaluate_many`` walks its messages in order on one
generator seeded once, so each message draws its own trajectory.

Validity checks run in three places. During a map build, every stack the
engine produces, after every gate, cascade, correction and measurement,
passes ``qcore.check_states``: finite, Hermitian, unit trace and positive
semidefinite. Once per map, ``check_branch_maps`` checks that every Choi
matrix J_b is positive semidefinite (complete positivity) and that sum_b E_b
preserves the trace. Once per evaluation, on the evaluation's own arrays:
the final states of every branch of every message evaluated pass
``check_states`` as one stack, ``qcore.fidelities_pure`` holds every
fidelity to [0, 1], and ``_check_results`` runs the checks of
``ProtocolResult`` on all results at once (every message keeps a branch,
every branch probability lies in [0, 1], and exhaustively each message's
probabilities sum to 1). The records are then built in one pass from these
checked arrays, the final states as read-only rows of the checked stack,
without running any check again.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channels, qcore, qswitch
from .qcore import (
    ATOL,
    MAX_RECEIVERS,
    PROB_FLOOR,
    CompletenessError,
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

    id: int | str
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
        if qcore.kraus_defect(self.operator.entries[None]) > ATOL:
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
    sender: int | str
    recipient: int | str
    bits: tuple[int, ...]


@dataclass(frozen=True)
class NonlocalOperation:
    """Joint operation a spatially separated party set could not perform;
    admitted only in protocols that declare it, and always flagged."""

    actor: int | str
    factors: tuple[int, ...]
    operator: Operator
    label: str = ""
    flagged: bool = True


# a PEP 604 union: typing.Union caches its members, and through them this
# module's globals, so a fresh import of rrqc could never free the old one
Event = LocalUnitary | LocalMeasurement | ClassicalMessage | NonlocalOperation


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
        if self.seed is not None:
            seed = qcore.as_index(self.seed)
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed}")
            object.__setattr__(self, "seed", seed)

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
        # every check is written so that NaN fails it
        for br in self.branches:
            if not 0.0 <= br.fidelity <= 1.0 + ATOL:
                raise ValidityError(f"branch fidelity {br.fidelity} outside [0, 1]")
            if not 0.0 <= br.probability <= 1.0 + ATOL:
                raise ValidityError(f"branch probability {br.probability} outside [0, 1]")
        if self.policy.kind == "exhaustive":
            total = sum(br.probability for br in self.branches)
            if not abs(total - 1.0) <= ATOL:
                raise ValidityError(f"branch probabilities sum to {total}, not 1")

    @property
    def fidelity(self) -> float:
        weight = sum(br.probability for br in self.branches)
        return sum(br.probability * br.fidelity for br in self.branches) / weight

    @property
    def min_fidelity(self) -> float:
        return min(br.fidelity for br in self.branches)


def _check_results(
    chosen: np.ndarray, probabilities: list[float], spans: list[tuple[int, int]], exhaustive: bool
) -> None:
    """The checks of ``ProtocolResult`` on all results of one evaluation at
    once, raising the error it raises on the first failing result.

    ``chosen`` holds every branch's probability, ``probabilities`` the same
    values as Python floats, and ``spans`` each result's (start, end) in
    them, in order. Fidelities are not checked: ``qcore.fidelities_pure``
    has already held them to [0, 1 + ATOL].
    """
    # every check is written so that NaN fails it
    in_range = (chosen >= 0.0) & (chosen <= 1.0 + ATOL)
    first_bad = len(probabilities) if in_range.all() else int(np.argmin(in_range))
    for start, end in spans:
        if start == end:
            raise ValidityError("protocol produced no branches")
        # the results before this one passed, so first_bad >= start
        if first_bad < end:
            raise ValidityError(f"branch probability {probabilities[first_bad]} outside [0, 1]")
        if exhaustive:
            total = sum(probabilities[start:end])  # in order, as ProtocolResult sums
            if not abs(total - 1.0) <= ATOL:
                raise ValidityError(f"branch probabilities sum to {total}, not 1")


# ---------------------------------------------------------------------------
# simulation engine
# ---------------------------------------------------------------------------

def _cascade_kraus() -> np.ndarray:
    """Read-only Kraus stack of the definite-order cascade on one qubit: the
    equal-X/Y mixture composed with itself, i.e. full dephasing. Its
    completeness is checked here, once, not on every use."""
    kraus = channels.pauli_kraus(channels.compose(channels.N_XY, channels.N_XY))
    qcore.check_complete(kraus, "cascade Kraus set")
    kraus.setflags(write=False)
    return kraus


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
    recipient: int | str
    corrections: tuple[LocalUnitary, ...] = ()

    def events(self, outcome: int) -> tuple[Event, ...]:
        """The transcript events of this step on one outcome."""
        heard = (
            LocalMeasurement(self.party, (self.factor,), self.basis, outcome),
            ClassicalMessage(self.party.id, self.recipient, (outcome,)),
        )
        return heard + self.corrections if outcome else heard


class _Batch:
    """One run: every live branch as one (B, d, d) stack of states, and
    what its transcripts are built from.

    ``live`` lists the original factor ids still in the register, in
    register order. It is shared by all branches, because every branch
    measures the same factor at each step; events keep the original ids and
    ``position`` maps them into the register. ``parties`` are the run's
    participants and ``carriers`` which factor each receiver's carrier is
    (by default receiver y holds factor y - 1). ``steps`` lists the
    announcements so far and ``levels`` the branch bits and probabilities
    after each of them, the root first; the last level is the live
    branches'. ``prefix`` holds the events of the distribution stage, which
    every branch shares, and ``allow_nonlocal`` whether its transcripts
    declare nonlocal events. Every stack the batch produces passes
    ``qcore.check_states``.
    """

    #: set by ``_retrieve``: the index of the retrieval's first step and the
    #: Z that x applies on odd retrieval parity
    retrieval_start: int
    z_at_target: LocalUnitary

    def __init__(
        self,
        state: DensityMatrix,
        parties: dict[int, Party],
        carriers: dict[int, int] | None = None,
        allow_nonlocal: bool = False,
    ):
        self.states = state.matrix[None]
        self.dims = state.dims
        self.live = tuple(range(len(state.dims)))
        self.parties = parties
        self.carriers = {y: y - 1 for y in parties} if carriers is None else carriers
        self.allow_nonlocal = allow_nonlocal
        self.prefix: tuple[Event, ...] = ()
        self.steps: tuple[_Announcement, ...] = ()
        self.levels = ((((),), np.ones(1)),)

    @property
    def bits(self) -> tuple[tuple[int, ...], ...]:
        """Each live branch's announced outcomes, one per step so far."""
        return self.levels[-1][0]

    @property
    def probabilities(self) -> np.ndarray:
        return self.levels[-1][1]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(step.key for step in self.steps)

    def transcripts(self) -> tuple[Transcript, ...]:
        """Each branch's transcript after the retrieval, built once from the
        shared prefix and the branch's bits; its construction runs the
        nonlocal guard."""
        events = [(step.events(0), step.events(1)) for step in self.steps]
        return tuple(
            Transcript(
                (
                    *self.prefix,
                    *(event for pair, bit in zip(events, bits) for event in pair[bit]),
                    *((self.z_at_target,) if sum(bits[self.retrieval_start :]) % 2 else ()),
                ),
                self.allow_nonlocal,
            )
            for bits in self.bits
        )

    def position(self, factor: int) -> int:
        return self.live.index(factor)

    def _checked(self, states: np.ndarray) -> np.ndarray:
        qcore.check_states(states)
        return states

    def cnot(self, gate: LocalUnitary | NonlocalOperation) -> None:
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
                self.states[rows], gate.operator.entries[None], self.position(factor), self.dims
            )
        )

    def announce(self, step: _Announcement) -> None:
        """Measure and discard ``step.factor`` on every branch and record the
        step and its level. Every outcome above ``PROB_FLOOR`` becomes a
        child, parent-major with outcome 0 first."""
        index = self.position(step.factor)
        probs, posts = qcore.project_and_discard(
            self.states, _BASES[step.basis], index, self.dims
        )
        parents, labels = np.nonzero(probs >= PROB_FLOOR)
        chosen = probs[parents, labels]
        self.live = self.live[:index] + self.live[index + 1 :]
        self.dims = self.dims[:index] + self.dims[index + 1 :]
        self.states = self._checked(qcore.renormalize(posts[parents, labels], chosen))
        bits, probabilities = self.levels[-1]
        children = tuple(bits[p] + (l,) for p, l in zip(parents.tolist(), labels.tolist()))
        self.steps += (step,)
        self.levels += ((children, probabilities[parents] * chosen),)
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


def _retrieve(batch: _Batch, n: int, x: int) -> _Batch:
    """A copy of ``batch`` after the GHZ retrieval at ``x``, every branch
    enumerated.

    Every receiver other than ``x`` announces its carrier in the Fourier
    basis to ``x``, which applies Z raised to the sum of those bits. The
    retrieval discards every factor but x's carrier, so each final state is
    a qubit.
    """
    # steps rebind the batch's fields, so ``batch`` keeps its own; a step
    # that wrote into its (read-only) states would raise
    batch = copy.copy(batch)
    batch.retrieval_start = len(batch.steps)
    parties, carriers = batch.parties, batch.carriers
    for y in range(1, n + 1):
        if y != x:
            batch.announce(_Announcement(parties[y], carriers[y], "fourier", f"B{y}", x))
    batch.z_at_target = LocalUnitary(parties[x], (carriers[x],), qcore.Z, "Z")
    (odd_rows,) = np.nonzero([sum(bits[batch.retrieval_start :]) % 2 for bits in batch.bits])
    if odd_rows.size:
        batch.correct(batch.z_at_target, odd_rows)
    return batch


def _simulate(variant: str, msg: MessageState, n: int, x: int) -> _Batch:
    """Run ``variant`` on ``msg`` at (n, x), enumerating every branch: its
    distribution stage and own announcements, then the GHZ retrieval."""
    return _retrieve(_STAGES[variant](msg, n), n, x)


# ---------------------------------------------------------------------------
# exact branch maps
# ---------------------------------------------------------------------------

#: |0>, |1>, |+> and |+i>: messages whose density matrices span the qubit
#: operators, so a protocol's value on them fixes its value on every message.
_SPANNING = (
    MessageState(1.0, 0.0),
    MessageState(0.0, 1.0),
    MessageState(1 / np.sqrt(2), 1 / np.sqrt(2)),
    MessageState(1 / np.sqrt(2), 1j / np.sqrt(2)),
)


def _matrix_units(values: np.ndarray) -> np.ndarray:
    """Values of a linear map at the four ``_SPANNING`` inputs, stacked on
    axis 0, turned into its values at the matrix units |j><k|, on new axes
    1 and 2: |0><1| = P_+ + i P_+i - (1 + i) I / 2, and |1><0| its adjoint."""
    zero, one, plus, plus_i = values
    half = (zero + one) / 2
    upper = plus + 1j * plus_i - (1 + 1j) * half
    lower = plus - 1j * plus_i - (1 - 1j) * half
    units = np.array([[zero, upper], [lower, one]], dtype=complex)
    return np.moveaxis(units, (0, 1), (1, 2))


def _choi_matrices(transfer: np.ndarray) -> np.ndarray:
    """Choi matrices J_b of qubit maps given as transfer[b, j, k] = E_b(|j><k|),
    on output (x) reference as in ``channels.choi``: J_b is
    (E_b (x) id)(|Phi+><Phi+|), so a channel's has unit trace."""
    return transfer.transpose(0, 3, 1, 4, 2).reshape(-1, 4, 4) / 2


def check_branch_maps(transfer: np.ndarray) -> None:
    """Raise unless the qubit maps transfer[b, j, k] = E_b(|j><k|) are an
    instrument: every Choi matrix J_b Hermitian and positive semidefinite
    within ``ATOL`` (ValidityError), and sum_b E_b trace preserving, i.e.
    sum_b Tr E_b(|j><k|) = delta_jk within ``ATOL`` (CompletenessError).
    Every check is written so that NaN fails it."""
    choi = _choi_matrices(transfer)
    if not np.abs(choi - choi.conj().swapaxes(1, 2)).max() <= ATOL:
        raise ValidityError("branch map is not Hermitian preserving")
    lowest = float(np.linalg.eigvalsh(choi).min())
    if not lowest >= -ATOL:
        raise ValidityError(f"branch map is not completely positive (Choi eigenvalue {lowest})")
    defect = float(np.abs(np.einsum("bjkxx->jk", transfer) - np.eye(2)).max())
    if not defect <= ATOL:
        raise CompletenessError(f"branch maps are not trace preserving (defect {defect:.3e})")


@dataclass(frozen=True, eq=False)
class BranchMap:
    """One protocol at one (n, x) as exact qubit maps, one per branch.

    The branch tree has one node per announced-outcome prefix, the root
    first and each level in the engine's order; its last level holds the
    branches. ``effects[v]`` gives node v's probability on any message,
    p_v = sum_jk rho_jk effects[v, j, k], and ``transfer[b, j, k]`` is
    E_b(|j><k|), the unnormalized state that branch b leaves at x.
    ``children`` holds each node's outcome-0 and outcome-1 child as a pair
    of ints (-1 where there is none) and ``paths`` each branch's nodes,
    from the root down to its leaf. ``outcomes`` holds each branch's
    outcomes dict, of which every result gets its own copy.
    """

    n: int
    x: int
    keys: tuple[str, ...]
    bits: tuple[tuple[int, ...], ...]
    outcomes: tuple[dict[str, int], ...]
    transcripts: tuple[Transcript, ...]
    transfer: np.ndarray
    effects: np.ndarray
    children: tuple[tuple[int, int], ...]
    paths: np.ndarray

    @property
    def choi(self) -> np.ndarray:
        """The Choi matrix J_b = (E_b (x) id)(|Phi+><Phi+|) of every branch
        map, stacked as (B, 4, 4) on output (x) reference as in
        ``channels.choi``; their sum has unit trace."""
        return _choi_matrices(self.transfer)

    def __post_init__(self):
        # one map serves every later call, so no caller may change it
        for array in (self.transfer, self.effects, self.paths):
            array.setflags(write=False)

    def evaluate(
        self, msg: MessageState, outcome_policy: OutcomePolicy | None = None
    ) -> ProtocolResult:
        """The run of this protocol on ``msg``: every branch whose conditional
        probabilities along its path all reach ``PROB_FLOOR``, or the one
        branch a seeded walk down the tree draws."""
        (result,) = self.evaluate_many((msg,), outcome_policy)
        return result

    def evaluate_many(
        self, messages, outcome_policy: OutcomePolicy | None = None
    ) -> tuple[ProtocolResult, ...]:
        """``evaluate`` on each of ``messages``. The checks run once on the
        arrays of all the runs: one ``check_states`` on the final states,
        one ``fidelities_pure`` and one ``_check_results``; the records are
        built after them, without checks of their own.

        Exhaustively, each message gets the same values bit for bit as
        ``evaluate`` gives it alone. A sampled policy walks the messages in
        order with one generator seeded once (``_walk``, one draw per
        announcement), so each draws its own trajectory; the first message,
        and a single one, draws exactly what ``evaluate`` draws."""
        policy = OutcomePolicy.exhaustive() if outcome_policy is None else outcome_policy
        messages = tuple(messages)
        if not messages:
            return ()
        vecs = np.array([(m.alpha, m.beta) for m in messages], dtype=complex)
        rhos = (vecs[:, :, None] * vecs[:, None, :].conj()).reshape(-1, 4)
        # elementwise products and sums, so each message's values do not
        # depend on how many are evaluated together
        probs = (rhos[:, None, :] * self.effects.reshape(1, -1, 4)).sum(axis=-1).real
        if policy.kind == "sample":
            cases = np.arange(len(messages))
            rng = np.random.default_rng(policy.seed)
            rows = np.array([self._walk(row, rng) for row in probs.tolist()])
        else:
            # p_child >= PROB_FLOOR * p_parent: the conditional reaches the floor
            along = probs[:, self.paths]
            cases, rows = np.nonzero((along[..., 1:] >= PROB_FLOOR * along[..., :-1]).all(axis=-1))
        chosen = probs[cases, self.paths[rows, -1]]
        outputs = (rhos[cases, :, None] * self.transfer[rows].reshape(-1, 4, 4)).sum(axis=1)
        # a fresh stack, so its rows are the final states without a copy
        finals = qcore.renormalize(outputs.reshape(-1, 2, 2), chosen)
        qcore.check_states(finals)
        finals.setflags(write=False)
        fidelities = qcore.fidelities_pure(vecs[cases], finals)
        probabilities = chosen.tolist()
        ends = np.bincount(cases, minlength=len(messages)).cumsum().tolist()
        spans = list(zip([0] + ends[:-1], ends))
        _check_results(chosen, probabilities, spans, policy.kind == "exhaustive")
        # every field is checked above, so no record checks it again
        prechecked, dims = qcore._prechecked, (2,)
        branches = [
            prechecked(
                BranchResult,
                {
                    "probability": probability,
                    "outcomes": self.outcomes[row].copy(),
                    "fidelity": fidelity,
                    "final_state": prechecked(DensityMatrix, {"matrix": matrix, "dims": dims}),
                    "transcript": self.transcripts[row],
                },
            )
            for row, probability, fidelity, matrix in zip(
                rows.tolist(), probabilities, fidelities.tolist(), finals
            )
        ]
        return tuple(
            prechecked(
                ProtocolResult,
                {
                    "message": msg,
                    "n": self.n,
                    "x": self.x,
                    "policy": policy,
                    "branches": tuple(branches[start:end]),
                },
            )
            for msg, (start, end) in zip(messages, spans)
        )

    def _walk(self, probs: list[float], rng: np.random.Generator) -> int:
        """The branch reached by drawing each announced outcome from its
        conditional probabilities, outcomes below ``PROB_FLOOR`` excluded.

        ``probs`` holds the message's node probabilities as Python floats.
        Each announcement draws one ``rng.random()``, also where one outcome
        is kept, and picks by the float operations ``rng.choice`` performs
        on the kept conditionals w: q = w / sum(w), cdf = cumsum(q) divided
        by its last entry, and the count of cdf entries at or below the draw.
        With two kept outcomes that is outcome 0 iff u < q0 / (q0 + q1). A
        root whose probability is not positive and finite, or a node that
        keeps no outcome, raises ValidityError; every node reached below a
        good root then has a positive, finite probability.
        """
        node = 0
        if not 0.0 < probs[0] < math.inf:  # NaN fails too
            raise ValidityError("protocol produced no branches")
        for _ in self.keys:
            total = probs[node]
            kid0, kid1 = self.children[node]
            w0 = probs[kid0] / total if kid0 >= 0 else 0.0
            w1 = probs[kid1] / total if kid1 >= 0 else 0.0
            w0 = w0 if w0 >= PROB_FLOOR else 0.0
            w1 = w1 if w1 >= PROB_FLOOR else 0.0
            kept = w0 + w1
            # no outcome kept, as exhaustively where every branch is cut, or
            # an infinite one
            if not 0.0 < kept < math.inf:
                raise ValidityError("protocol produced no branches")
            u = rng.random()
            if w0 and w1:
                q0, q1 = w0 / kept, w1 / kept
                node = kid0 if u < q0 / (q0 + q1) else kid1
            else:
                node = kid0 if w0 else kid1
        return node - (len(probs) - len(self.bits))


def _build_maps(variant: str, n: int, xs) -> list[BranchMap]:
    """The branch maps at every x in ``xs``, checked by ``check_branch_maps``.

    The engine runs on each ``_SPANNING`` message, one at a time, up to the
    retrieval, which alone depends on x; the retrieval at each x then runs
    after that one run. Each x's four runs become its branch tree and maps.
    """
    runs: dict[int, list[_Batch]] = {x: [] for x in xs}
    for msg in _SPANNING:
        batch = _STAGES[variant](msg, n)
        batch.states.setflags(write=False)  # every x retrieves from it
        for x in runs:
            runs[x].append(_retrieve(batch, n, x))
    return [_branch_map_from(variant, n, x, runs[x]) for x in xs]


def _branch_map_from(variant: str, n: int, x: int, runs: list[_Batch]) -> BranchMap:
    first = runs[0]
    tree = [bits for bits, _ in first.levels]
    if any([bits for bits, _ in run.levels] != tree for run in runs[1:]):
        raise ValidityError(f"{variant} at n={n}, x={x}: spanning inputs reach different branches")
    nodes = [bits for level in tree for bits in level]
    index = {bits: i for i, bits in enumerate(nodes)}
    leaves = tree[-1]
    depth = len(first.keys)
    probabilities = np.array([np.concatenate([probs for _, probs in run.levels]) for run in runs])
    outputs = np.array([run.probabilities[:, None, None] * run.states for run in runs])
    transfer = _matrix_units(outputs)
    check_branch_maps(transfer)
    return BranchMap(
        n=n,
        x=x,
        keys=first.keys,
        bits=leaves,
        outcomes=tuple(dict(zip(first.keys, bits)) for bits in leaves),
        transcripts=first.transcripts(),
        transfer=transfer,
        effects=_matrix_units(probabilities),
        children=tuple((index.get(bits + (0,), -1), index.get(bits + (1,), -1)) for bits in nodes),
        paths=np.array([[index[bits[:i]] for i in range(depth + 1)] for bits in leaves]),
    )


#: Every branch map built so far, by (variant, n, x): at most 4 x 21 keys.
_MAPS: dict[tuple[str, int, int], BranchMap] = {}


def branch_maps(variant: str, n: int, xs) -> tuple[BranchMap, ...]:
    """The exact branch maps of ``variant`` (noiseless, switch, baseline or
    controlled-ops) at n for each target in ``xs``, built on first use and
    kept for the process. Those not yet built are built together
    (``_build_maps``), sharing the engine runs up to the retrieval."""
    if variant not in _STAGES:
        raise ValueError(f"unknown protocol variant {variant!r}")
    n = qcore.as_index(n)  # one key each
    xs = [qcore.as_index(x) for x in xs]
    for x in xs:
        _check_run_args(n, x)
    missing = [x for x in dict.fromkeys(xs) if (variant, n, x) not in _MAPS]
    if missing:
        for x, maps in zip(missing, _build_maps(variant, n, missing)):
            _MAPS[variant, n, x] = maps
    return tuple(_MAPS[variant, n, x] for x in xs)


def branch_map(variant: str, n: int, x: int) -> BranchMap:
    """``branch_maps`` at the one target ``x``; a key already built is one
    lookup."""
    # exact ints only: 2.0 and True hash as 2 and 1 do, and must take the
    # checks of branch_maps
    if type(n) is int and type(x) is int:
        built = _MAPS.get((variant, n, x))
        if built is not None:
            return built
    (maps,) = branch_maps(variant, n, (x,))
    return maps


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


def _noiseless_stage(msg: MessageState, n: int) -> _Batch:
    return _Batch(ghz_encode(msg, n).density(), _receivers(n))


def _switch_stage(msg: MessageState, n: int) -> _Batch:
    parties = _receivers(n)
    batch = _Batch(_switched_nxy(n).apply(ghz_encode(msg, n).density()), parties)
    control_holder = Party(CONTROL_HOLDER, frozenset({n}))
    flip = LocalUnitary(parties[1], (0,), qcore.Z, "Z")
    batch.announce(_Announcement(control_holder, n, "fourier", "control", BROADCAST, (flip,)))
    return batch


def _baseline_stage(msg: MessageState, n: int) -> _Batch:
    batch = _Batch(ghz_encode(msg, n).density(), _receivers(n))
    for k in range(n):
        batch.cascade(k)
    return batch


def _controlled_ops_stage(msg: MessageState, n: int) -> _Batch:
    parties = _receivers(n)
    # receiver 1 also ends up holding the control qubit (last factor), which
    # takes its place as a GHZ carrier
    parties[1] = Party(1, frozenset({0, n}))
    carriers = {1: n} | {k: k - 1 for k in range(2, n + 1)}
    sender = Party(SENDER, frozenset(range(n + 1)))

    vec = np.zeros(2 ** (n - 1), dtype=complex)
    vec[0] = 1.0
    amplitudes = np.kron(np.kron(msg.ket().amplitudes, vec), qcore.KET_PLUS.amplitudes)
    state = Ket(amplitudes, (2,) * (n + 1)).density()
    batch = _Batch(state, parties, carriers, allow_nonlocal=True)

    batch.cnot(LocalUnitary(sender, (n, 0), qcore.CNOT, "CNOT"))
    for k in range(n):
        batch.cascade(k)
    for k in range(1, n):
        batch.cnot(NonlocalOperation(THIRD_PARTY, (n, k), qcore.CNOT, "CNOT"))

    flips = [LocalUnitary(parties[k], (k - 1,), qcore.X, "X") for k in range(2, n + 1)]
    flips.append(LocalUnitary(parties[1], (n,), qcore.X, "X"))
    batch.announce(_Announcement(parties[1], 0, "computational", "B1_bit", BROADCAST, tuple(flips)))
    return batch


#: Each variant's distribution stage, by the name ``branch_map`` takes.
_STAGES = {
    "noiseless": _noiseless_stage,
    "switch": _switch_stage,
    "baseline": _baseline_stage,
    "controlled-ops": _controlled_ops_stage,
}
#: The protocol variants, by the name ``branch_map`` takes.
VARIANTS = tuple(_STAGES)


def run_noiseless_protocol(
    msg: MessageState, n: int, x: int, outcome_policy: OutcomePolicy | None = None
) -> ProtocolResult:
    """GHZ distribution over noiseless channels plus LOCC retrieval at x."""
    return branch_map("noiseless", n, x).evaluate(msg, outcome_policy)


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
    return branch_map("switch", n, x).evaluate(msg, outcome_policy)


def run_definite_order_baseline(
    msg: MessageState, n: int, x: int, outcome_policy: OutcomePolicy | None = None
) -> ProtocolResult:
    """Same pipeline with the two noise layers cascaded in a fixed order.

    Each qubit then sees the composition of the equal-X/Y mixture with
    itself, i.e. full dephasing; no control qubit exists, so nothing can be
    corrected and the reported fidelity is degraded for non-classical
    messages.
    """
    return branch_map("baseline", n, x).evaluate(msg, outcome_policy)


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
    return branch_map("controlled-ops", n, x).evaluate(msg, outcome_policy)

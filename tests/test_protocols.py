import copy
import dataclasses
import functools
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrqc import channels, cli, protocols, qcore
from rrqc.protocols import (
    BROADCAST,
    BranchResult,
    CONTROL_HOLDER,
    SENDER,
    THIRD_PARTY,
    ClassicalMessage,
    LocalityError,
    LocalMeasurement,
    LocalUnitary,
    MessageState,
    NonlocalOperation,
    OutcomePolicy,
    Party,
    ProtocolResult,
    Transcript,
    branch_map,
    branch_maps,
    ghz_encode,
    haar_message,
    run_controlled_ops_protocol,
    run_definite_order_baseline,
    run_noiseless_protocol,
    run_switch_protocol,
)
from rrqc.qcore import CompletenessError, Operator, ValidityError


def messages():
    return st.floats(0.05, 0.95).flatmap(
        lambda p: st.floats(0.0, 2 * np.pi).map(
            lambda phi: MessageState(np.sqrt(p), np.sqrt(1 - p) * np.exp(1j * phi))
        )
    )


RANDOM_MSG = MessageState(0.6, 0.8j)


# ---------------------------------------------------------------------------
# message and encoding
# ---------------------------------------------------------------------------


def test_message_state_requires_unit_norm():
    with pytest.raises(ValidityError):
        MessageState(1.0, 1.0)


@pytest.mark.parametrize("amplitudes", [(np.nan, 0.0), (0.6, complex(np.nan, 0.8))])
def test_message_state_rejects_nan(amplitudes):
    with pytest.raises(ValidityError):
        MessageState(*amplitudes)


def test_haar_message_is_seeded():
    a = haar_message(np.random.default_rng(1))
    b = haar_message(np.random.default_rng(1))
    assert a == b


def test_ghz_encode_basis_cases():
    np.testing.assert_allclose(
        ghz_encode(MessageState.zero(), 3).amplitudes, np.eye(8)[0], atol=1e-12
    )
    bell = ghz_encode(MessageState.plus(), 2).amplitudes
    np.testing.assert_allclose(bell, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)


def test_ghz_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        ghz_encode(RANDOM_MSG, 0)
    with pytest.raises(ValueError):
        ghz_encode(RANDOM_MSG, 7)


@settings(max_examples=25)
@given(messages())
def test_ghz_invariant_under_even_z_strings(msg):
    ket = ghz_encode(msg, 3).amplitudes
    for labels in (("Z", "Z", "I"), ("Z", "I", "Z"), ("I", "Z", "Z")):
        flipped = channels.pauli_string(labels).entries @ ket
        np.testing.assert_allclose(flipped, ket, atol=1e-12)
    # odd strings flip the relative phase instead
    odd = channels.pauli_string(("Z", "I", "I")).entries @ ket
    assert np.abs(odd - ket).max() > 1e-6 or abs(msg.beta) < 1e-6


# ---------------------------------------------------------------------------
# LOCC enforcement
# ---------------------------------------------------------------------------


def test_local_unitary_rejects_foreign_factors():
    with pytest.raises(LocalityError):
        LocalUnitary(Party(1, frozenset({0})), (0, 1), qcore.CNOT)


def test_local_measurement_rejects_foreign_factors():
    with pytest.raises(LocalityError):
        LocalMeasurement(Party(2, frozenset({1})), (0,), "fourier", 0)


def test_locality_guard_over_random_constructions():
    rng = np.random.default_rng(99)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        owner = int(rng.integers(1, n + 1))
        other = int(rng.integers(1, n + 1))
        while other == owner:
            other = int(rng.integers(1, n + 1))
        party = Party(owner, frozenset({owner - 1}))
        try:
            LocalUnitary(party, (owner - 1, other - 1), qcore.CNOT)
        except LocalityError:
            failures += 1
    assert failures == 100


def test_transcript_rejects_undeclared_nonlocal_events():
    gate = NonlocalOperation(THIRD_PARTY, (0, 1), qcore.CNOT)
    with pytest.raises(LocalityError):
        Transcript(events=(gate,))
    declared = Transcript(events=(gate,), allow_nonlocal=True)
    assert declared.nonlocal_events() == [gate]
    with pytest.raises(dataclasses.FrozenInstanceError):
        declared.events = ()
    # a list handed in is held as a tuple, so the guard cannot be bypassed
    assert isinstance(Transcript(events=[]).events, tuple)


def test_outcome_policy_sampling_requires_seed():
    with pytest.raises(ValueError):
        OutcomePolicy("sample")
    with pytest.raises(ValueError):
        OutcomePolicy("other")


@pytest.mark.parametrize(
    "seed, error",
    [(-1, ValueError), (1.5, TypeError), ("3", TypeError)],
    ids=["negative", "float", "str"],
)
def test_outcome_policy_checks_its_seed_when_built(seed, error):
    # each used to construct and fail only at evaluation, inside numpy
    with pytest.raises(error):
        OutcomePolicy.sample(seed)


def test_outcome_policy_holds_an_integer_seed():
    policy = OutcomePolicy.sample(np.int64(3))
    assert policy == OutcomePolicy.sample(3)
    assert type(policy.seed) is int


# ---------------------------------------------------------------------------
# noiseless protocol
# ---------------------------------------------------------------------------


def test_noiseless_all_branches_perfect():
    result = run_noiseless_protocol(MessageState.plus(), 3, 2)
    assert len(result.branches) == 4
    assert result.min_fidelity > 1 - 1e-9
    assert abs(sum(b.probability for b in result.branches) - 1.0) < 1e-9


def test_noiseless_trivial_message():
    result = run_noiseless_protocol(MessageState.zero(), 2, 1)
    assert result.min_fidelity > 1 - 1e-9


def test_noiseless_last_receiver_random_message():
    result = run_noiseless_protocol(
        haar_message(np.random.default_rng(3)), 5, 5, OutcomePolicy.exhaustive()
    )
    assert result.min_fidelity > 1 - 1e-9
    assert len(result.branches) == 16


def test_noiseless_rejects_bad_target():
    with pytest.raises(ValueError):
        run_noiseless_protocol(RANDOM_MSG, 3, 4)
    with pytest.raises(ValueError):
        run_noiseless_protocol(RANDOM_MSG, 3, 0)


def test_noiseless_transcript_is_pure_locc():
    result = run_noiseless_protocol(RANDOM_MSG, 3, 1)
    for branch in result.branches:
        assert branch.transcript.nonlocal_events() == []
        # two reporting parties, one bit each
        assert len(branch.transcript.classical_messages()) == 2


# ---------------------------------------------------------------------------
# switch protocol
# ---------------------------------------------------------------------------


def test_switch_protocol_two_receivers_both_control_branches():
    result = run_switch_protocol(haar_message(np.random.default_rng(4)), 2, 1)
    controls = {b.outcomes["control"] for b in result.branches}
    assert controls == {0, 1}
    assert result.min_fidelity > 1 - 1e-9


def test_switch_protocol_branch_count_and_fidelity():
    result = run_switch_protocol(MessageState.plus(), 3, 2)
    assert len(result.branches) == 8  # 2 control x 4 retrieval outcomes
    assert result.min_fidelity > 1 - 1e-9
    assert abs(sum(b.probability for b in result.branches) - 1.0) < 1e-9


def test_switch_protocol_z_diagonal_message_immune():
    for n, x in ((2, 2), (4, 1)):
        result = run_switch_protocol(MessageState.zero(), n, x)
        assert result.min_fidelity > 1 - 1e-9


def test_switch_protocol_transcript_contract():
    result = run_switch_protocol(RANDOM_MSG, 3, 3)
    for branch in result.branches:
        assert branch.transcript.nonlocal_events() == []
        assert branch.transcript.classical_bits_from(CONTROL_HOLDER) == 1
        control_msgs = branch.transcript.classical_messages(CONTROL_HOLDER)
        assert [m.recipient for m in control_msgs] == [BROADCAST]


def test_switch_protocol_sampled_trajectory_matches_enumeration():
    exhaustive = run_switch_protocol(RANDOM_MSG, 3, 1, OutcomePolicy.exhaustive())
    sampled = run_switch_protocol(RANDOM_MSG, 3, 1, OutcomePolicy.sample(11))
    assert len(sampled.branches) == 1
    assert abs(sampled.fidelity - exhaustive.fidelity) < 1e-9


def test_switch_protocol_default_policy_enumerates_beyond_four():
    result = run_switch_protocol(RANDOM_MSG, 5, 2)
    assert result.policy.kind == "exhaustive"
    assert len(result.branches) == 32
    assert result.min_fidelity > 1 - 1e-9


# ---------------------------------------------------------------------------
# definite-order baseline
# ---------------------------------------------------------------------------


def test_baseline_plus_message_degrades_to_half():
    # per-qubit full dephasing leaves diag(|a|^2, |b|^2) at the target
    result = run_definite_order_baseline(MessageState.plus(), 2, 1)
    for branch in result.branches:
        assert abs(branch.fidelity - 0.5) < 1e-9


def test_baseline_classical_message_survives():
    result = run_definite_order_baseline(MessageState.zero(), 3, 2)
    assert result.min_fidelity > 1 - 1e-9


def test_baseline_fidelity_formula_on_random_messages():
    rng = np.random.default_rng(5)
    for _ in range(10):
        msg = haar_message(rng)
        result = run_definite_order_baseline(msg, 2, 2)
        expected = abs(msg.alpha) ** 4 + abs(msg.beta) ** 4
        assert abs(result.fidelity - expected) < 1e-9


def test_baseline_haar_mean_near_two_thirds():
    rng = np.random.default_rng(6)
    total = 0.0
    count = 1500
    for _ in range(count):
        total += run_definite_order_baseline(
            haar_message(rng), 2, 1, OutcomePolicy.sample(0)
        ).fidelity
    assert abs(total / count - 2 / 3) < 0.02


# ---------------------------------------------------------------------------
# controlled-operations protocol
# ---------------------------------------------------------------------------


def test_controlled_ops_perfect_for_random_message():
    result = run_controlled_ops_protocol(haar_message(np.random.default_rng(7)), 2, 2)
    assert result.min_fidelity > 1 - 1e-9


def test_controlled_ops_trivial_message():
    result = run_controlled_ops_protocol(MessageState.zero(), 3, 3)
    assert result.min_fidelity > 1 - 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controlled_ops_flags_expected_nonlocal_gates(n):
    result = run_controlled_ops_protocol(MessageState.plus(), n, 1)
    assert result.min_fidelity > 1 - 1e-9
    for branch in result.branches:
        flagged = branch.transcript.nonlocal_events()
        assert len(flagged) == n - 1
        assert all(e.flagged and e.label == "CNOT" for e in flagged)
        assert all(e.actor == THIRD_PARTY for e in flagged)


def test_controlled_ops_branch_completeness():
    result = run_controlled_ops_protocol(RANDOM_MSG, 3, 2)
    assert abs(sum(b.probability for b in result.branches) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# cross-protocol properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "runner", [run_noiseless_protocol, run_switch_protocol, run_controlled_ops_protocol]
)
def test_perfect_protocols_fidelity_equal_across_branches(runner):
    result = runner(RANDOM_MSG, 3, 2)
    fids = [b.fidelity for b in result.branches]
    assert max(fids) - min(fids) < 1e-9
    assert result.min_fidelity > 1 - 1e-9


def test_final_state_matches_message_for_switch():
    msg = haar_message(np.random.default_rng(8))
    result = run_switch_protocol(msg, 2, 2)
    target = msg.ket().density().matrix
    for branch in result.branches:
        np.testing.assert_allclose(branch.final_state.matrix, target, atol=1e-9)


# ---------------------------------------------------------------------------
# pinned transcripts
# ---------------------------------------------------------------------------


def _event_row(event):
    if isinstance(event, LocalUnitary):
        return ("U", event.party.id, event.factors, event.label)
    if isinstance(event, LocalMeasurement):
        return ("M", event.party.id, event.factors, event.basis, event.outcome)
    if isinstance(event, ClassicalMessage):
        return ("C", event.sender, event.recipient, event.bits)
    return ("N", event.actor, event.factors, event.label, event.flagged)


_RETRIEVAL_ALL_ONES = [
    ("M", 1, (0,), "fourier", 1),
    ("C", 1, 2, (1,)),
    ("M", 3, (2,), "fourier", 1),
    ("C", 3, 2, (1,)),
]

PINNED_TRANSCRIPTS = {
    run_noiseless_protocol: _RETRIEVAL_ALL_ONES,
    run_definite_order_baseline: _RETRIEVAL_ALL_ONES,
    run_switch_protocol: [
        ("M", CONTROL_HOLDER, (3,), "fourier", 1),
        ("C", CONTROL_HOLDER, BROADCAST, (1,)),
        ("U", 1, (0,), "Z"),
    ]
    + _RETRIEVAL_ALL_ONES,
    run_controlled_ops_protocol: [
        ("U", SENDER, (3, 0), "CNOT"),
        ("N", THIRD_PARTY, (3, 1), "CNOT", True),
        ("N", THIRD_PARTY, (3, 2), "CNOT", True),
        ("M", 1, (0,), "computational", 1),
        ("C", 1, BROADCAST, (1,)),
        ("U", 2, (1,), "X"),
        ("U", 3, (2,), "X"),
        ("U", 1, (3,), "X"),
        ("M", 1, (3,), "fourier", 1),
        ("C", 1, 2, (1,)),
        ("M", 3, (2,), "fourier", 1),
        ("C", 3, 2, (1,)),
    ],
}


@pytest.mark.parametrize("runner", list(PINNED_TRANSCRIPTS), ids=lambda r: r.__name__)
def test_all_ones_branch_transcript_is_pinned(runner):
    # n = 3, x = 2: the branch with every outcome 1 fires each conditional
    # correction; its two retrieval bits have even parity, so no final Z
    result = runner(RANDOM_MSG, 3, 2)
    (branch,) = [b for b in result.branches if set(b.outcomes.values()) == {1}]
    assert [_event_row(e) for e in branch.transcript.events] == PINNED_TRANSCRIPTS[runner]
    # an odd retrieval parity ends the transcript with the target's Z
    odd = [b for b in result.branches if b.outcomes["B1"] != b.outcomes["B3"]]
    assert odd
    for b in odd:
        assert _event_row(b.transcript.events[-1]) == ("U", 2, (1,), "Z")


# ---------------------------------------------------------------------------
# the engine against exact physics
# ---------------------------------------------------------------------------

RUNNERS = {
    "noiseless": run_noiseless_protocol,
    "switch": run_switch_protocol,
    "baseline": run_definite_order_baseline,
    "controlled-ops": run_controlled_ops_protocol,
}

def _protocol_rule(variant, n, x):
    """The events every branch of ``variant`` at (n, x) follows: the shared
    distribution prefix; the announcements in order, each as (key, party,
    factor, basis, recipient, corrections on outcome 1), the retrieval last;
    and the Z that x applies when the retrieval bits have odd parity."""
    receivers = {i: Party(i, frozenset({i - 1})) for i in range(1, n + 1)}
    carriers = {i: i - 1 for i in receivers}
    prefix, steps = (), []
    if variant == "switch":
        z_at_1 = LocalUnitary(receivers[1], (0,), qcore.Z, "Z")
        control = Party(CONTROL_HOLDER, frozenset({n}))
        steps.append(("control", control, n, "fourier", BROADCAST, (z_at_1,)))
    elif variant == "controlled-ops":
        receivers[1] = Party(1, frozenset({0, n}))
        carriers[1] = n
        sender = Party(SENDER, frozenset(range(n + 1)))
        prefix = (LocalUnitary(sender, (n, 0), qcore.CNOT, "CNOT"),) + tuple(
            NonlocalOperation(THIRD_PARTY, (n, k), qcore.CNOT, "CNOT") for k in range(1, n)
        )
        flips = tuple(
            LocalUnitary(receivers[k], (k - 1,), qcore.X, "X") for k in range(2, n + 1)
        ) + (LocalUnitary(receivers[1], (n,), qcore.X, "X"),)
        steps.append(("B1_bit", receivers[1], 0, "computational", BROADCAST, flips))
    steps += [
        (f"B{y}", receivers[y], carriers[y], "fourier", x, ()) for y in receivers if y != x
    ]
    z_at_x = LocalUnitary(receivers[x], (carriers[x],), qcore.Z, "Z")
    return prefix, steps, z_at_x


def _expected_events(rule, n, bits):
    prefix, steps, z_at_x = rule
    events = list(prefix)
    for (_, party, factor, basis, recipient, corrections), bit in zip(steps, bits):
        events.append(LocalMeasurement(party, (factor,), basis, bit))
        events.append(ClassicalMessage(party.id, recipient, (bit,)))
        if bit:
            events.extend(corrections)
    # the retrieval is the last n - 1 announcements
    if sum(bits[len(bits) - (n - 1) :]) % 2:
        events.append(z_at_x)
    return events


def _rows(events):
    """Type and every field of each event; operators compare by entries."""
    rows = []
    for event in events:
        values = []
        for f in dataclasses.fields(event):
            value = getattr(event, f.name)
            if isinstance(value, Operator):
                value = (value.entries.tobytes(), value.dims)
            values.append((f.name, value))
        rows.append((type(event), tuple(values)))
    return rows


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("variant", list(RUNNERS))
def test_engine_sweep_is_exact(variant, n):
    # every outcome of every announcement has probability 1/2, so each branch
    # is one outcome-bit tuple and no branch falls below the probability floor
    msg = haar_message(np.random.default_rng(n))
    a2, b2 = abs(msg.alpha) ** 2, abs(msg.beta) ** 2
    if variant == "baseline":
        fidelity, state = a2**2 + b2**2, np.diag([a2, b2])
    else:
        fidelity, state = 1.0, msg.ket().density().matrix
    for x in range(1, n + 1):
        rule = _protocol_rule(variant, n, x)
        keys = [step[0] for step in rule[1]]
        result = RUNNERS[variant](msg, n, x, OutcomePolicy.exhaustive())
        every_bits = list(itertools.product((0, 1), repeat=len(keys)))
        assert [list(b.outcomes) for b in result.branches] == [keys] * len(every_bits)
        assert [tuple(b.outcomes.values()) for b in result.branches] == every_bits
        for branch, bits in zip(result.branches, every_bits):
            assert abs(branch.probability - 2.0 ** -len(keys)) < 1e-12
            assert abs(branch.fidelity - fidelity) < 1e-12
            assert branch.final_state.dims == (2,)
            np.testing.assert_allclose(branch.final_state.matrix, state, rtol=0, atol=1e-12)
            assert branch.transcript.allow_nonlocal == (variant == "controlled-ops")
            assert _rows(branch.transcript.events) == _rows(_expected_events(rule, n, bits))
        by_bits = dict(zip(every_bits, result.branches))
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            drawn = tuple(int(rng.choice(2, p=[0.5, 0.5])) for _ in keys)
            (sampled,) = RUNNERS[variant](msg, n, x, OutcomePolicy.sample(seed)).branches
            assert list(sampled.outcomes) == keys
            assert tuple(sampled.outcomes.values()) == drawn
            twin = by_bits[drawn]
            assert abs(sampled.probability - twin.probability) < 1e-12
            assert abs(sampled.fidelity - twin.fidelity) < 1e-12
            np.testing.assert_allclose(
                sampled.final_state.matrix, twin.final_state.matrix, rtol=0, atol=1e-12
            )
            assert _rows(sampled.transcript.events) == _rows(twin.transcript.events)


# ---------------------------------------------------------------------------
# result validation
# ---------------------------------------------------------------------------

POLICIES = [OutcomePolicy.exhaustive(), OutcomePolicy.sample(0)]


def _branch(probability, fidelity):
    state = qcore.DensityMatrix.from_matrix(np.eye(2) / 2, (2,))
    return BranchResult(probability, {}, fidelity, state, Transcript())


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
@pytest.mark.parametrize(
    "probabilities, fidelity",
    [
        ((1.0,), np.nan),
        ((np.nan,), 1.0),
        ((-0.5, 1.5), 1.0),
        ((1.0 + 1e-6,), 1.0),
    ],
    ids=["nan-fidelity", "nan-probability", "negative-probability", "probability-above-1"],
)
def test_protocol_result_rejects_bad_branches_under_every_policy(policy, probabilities, fidelity):
    branches = tuple(_branch(p, fidelity) for p in probabilities)
    with pytest.raises(ValidityError):
        ProtocolResult(RANDOM_MSG, 1, 1, policy, branches)


def test_protocol_result_sums_left_to_right(compensated_sum):
    # the builtin float sum is compensated from Python 3.12 on; the checked
    # total and the fidelity add left to right, and no float goes through
    # the builtin
    branches = tuple(_branch(0.1, 0.5 + 0.05 * k) for k in range(10))
    recorder = compensated_sum()
    with recorder.patch():
        result = ProtocolResult(RANDOM_MSG, 1, 1, OutcomePolicy.exhaustive(), branches)
        fidelity = result.fidelity
    assert recorder.floats == []
    weighted = weight = 0.0
    for branch in branches:
        weighted += branch.probability * branch.fidelity
        weight += branch.probability
    assert weight == 0.9999999999999999 and fidelity == weighted / weight


# ---------------------------------------------------------------------------
# exact branch maps
# ---------------------------------------------------------------------------

#: The six Pauli eigenstates, a qubit 2-design: the mean of any quadratic
#: function of |psi><psi| over them is its Haar mean.
PAULI_EIGENSTATES = [
    MessageState(1.0, 0.0),
    MessageState(0.0, 1.0),
    MessageState(1 / np.sqrt(2), 1 / np.sqrt(2)),
    MessageState(1 / np.sqrt(2), -1 / np.sqrt(2)),
    MessageState(1 / np.sqrt(2), 1j / np.sqrt(2)),
    MessageState(1 / np.sqrt(2), -1j / np.sqrt(2)),
]
KEYS = [(n, x) for n in range(1, 7) for x in range(1, n + 1)]
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


def _entanglement_fidelity(variant, n, x):
    """<Phi+| sum_b J_b |Phi+>, with the unit-trace Choi matrix of the whole
    instrument."""
    total = branch_map(variant, n, x).choi.sum(axis=0)
    return float(np.real(PHI_PLUS @ total @ PHI_PLUS))


@pytest.mark.parametrize("n, x", KEYS)
def test_baseline_exact_values_through_maps(n, x):
    plus = run_definite_order_baseline(MessageState.plus(), n, x)
    assert abs(plus.fidelity - 0.5) < 1e-12
    haar = np.mean([run_definite_order_baseline(m, n, x).fidelity for m in PAULI_EIGENSTATES])
    assert abs(haar - 2 / 3) < 1e-12
    assert abs(_entanglement_fidelity("baseline", n, x) - 0.5) < 1e-12


@pytest.mark.parametrize("n, x", KEYS)
@pytest.mark.parametrize("variant", ["noiseless", "switch", "controlled-ops"])
def test_perfect_variants_exact_through_maps(variant, n, x):
    for msg in PAULI_EIGENSTATES + [RANDOM_MSG]:
        result = RUNNERS[variant](msg, n, x)
        assert abs(result.min_fidelity - 1.0) < 1e-12
    # every branch map is p_b times the identity channel
    for choi in branch_map(variant, n, x).choi:
        probability = np.trace(choi).real
        np.testing.assert_allclose(
            choi, probability * np.outer(PHI_PLUS, PHI_PLUS), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("n, x", KEYS)
@pytest.mark.parametrize("variant", list(RUNNERS))
def test_average_fidelity_matches_entanglement_fidelity(variant, n, x):
    # Nielsen: the Haar-average fidelity of a channel is (2 F_e + 1) / 3
    mean = np.mean([RUNNERS[variant](m, n, x).fidelity for m in PAULI_EIGENSTATES])
    assert abs(mean - (2 * _entanglement_fidelity(variant, n, x) + 1) / 3) < 1e-12


def test_branch_maps_are_built_once_per_key(monkeypatch):
    first = branch_map("switch", 3, 2)
    assert branch_map("switch", n=3, x=2) is first
    assert branch_map("switch", np.int64(3), np.int64(2)) is first
    with pytest.raises(ValueError):
        branch_map("teleport", 3, 2)
    with pytest.raises(ValueError):
        branch_map("switch", 3, 4)
    with pytest.raises(TypeError):
        run_switch_protocol(RANDOM_MSG, 2.5, 1)
    assert len(protocols._MAPS) <= 4 * len(KEYS)
    assert len(protocols._STAGE_RUNS) <= 4 * qcore.MAX_RECEIVERS
    monkeypatch.setattr(protocols, "_build_maps", None)  # a build would raise
    assert branch_maps("switch", 3, [2, 2]) == (first, first)
    run_switch_protocol(RANDOM_MSG, 3, 2)
    # results share the cached transcripts, each with its own outcomes dict
    a = run_switch_protocol(RANDOM_MSG, 3, 2)
    b = run_switch_protocol(RANDOM_MSG, 3, 2)
    assert all(x.transcript is y.transcript for x, y in zip(a.branches, b.branches))
    a.branches[0].outcomes["control"] = 7
    assert b.branches[0].outcomes["control"] == 0
    assert run_switch_protocol(RANDOM_MSG, 3, 2).branches[0].outcomes["control"] == 0
    # no two branches share an outcomes dict, within one result or across
    # evaluate_many results, and none is the map's template
    templates = copy.deepcopy(first.outcomes)
    results = first.evaluate_many([RANDOM_MSG, RANDOM_MSG]) + first.evaluate_many([RANDOM_MSG])
    dicts = [br.outcomes for result in results + (a, b) for br in result.branches]
    assert len({id(d) for d in dicts}) == len(dicts)
    assert not {id(d) for d in dicts} & {id(t) for t in first.outcomes}
    for d in dicts:
        d["control"] = 7
    assert first.outcomes == templates


def test_a_built_key_is_one_lookup_that_keeps_the_argument_checks(monkeypatch):
    built = branch_map("switch", 2, 1)
    with monkeypatch.context() as patched:
        patched.setattr(protocols, "branch_maps", None)  # any call would raise
        assert branch_map("switch", 2, 1) is built
        run_switch_protocol(RANDOM_MSG, 2, 1)
    # 2.0 hashes as 2 does, so only exact ints may take the lookup; the rest
    # get the checks of branch_maps
    for n, x in ((2.0, 1), (2, 1.0), (2, "1")):
        with pytest.raises(TypeError):
            run_switch_protocol(RANDOM_MSG, n, x)
    with pytest.raises(ValueError):
        run_switch_protocol(RANDOM_MSG, 2, 3)
    with pytest.raises(ValueError):
        run_switch_protocol(RANDOM_MSG, 2, 0)


def test_branch_map_check_rejects_a_scaled_map():
    transfer = branch_map("switch", 2, 1).transfer.copy()
    protocols.check_branch_maps(transfer)
    transfer[0] *= 1 + 1e-6
    with pytest.raises(CompletenessError):
        protocols.check_branch_maps(transfer)


def _reference_evaluate(maps, msgs, policy):
    """``evaluate_many`` by the same products and sums, with its final states
    built by ``DensityMatrix.from_stack`` and its records by the public,
    checking ``BranchResult`` and ``ProtocolResult`` constructors."""
    vecs = np.array([(m.alpha, m.beta) for m in msgs], dtype=complex)
    rhos = (vecs[:, :, None] * vecs[:, None, :].conj()).reshape(-1, 4)
    probs = (rhos[:, None, :] * maps.effects.reshape(1, -1, 4)).sum(axis=-1).real
    if policy.kind == "sample":
        cases = np.arange(len(msgs))
        rng = np.random.default_rng(policy.seed)
        rows = np.array([maps._walk(row, rng) for row in probs.tolist()])
    else:
        along = probs[:, maps.paths]
        kept = (along[..., 1:] >= protocols.PROB_FLOOR * along[..., :-1]).all(axis=-1)
        cases, rows = np.nonzero(kept)
    chosen = probs[cases, maps.paths[rows, -1]]
    outputs = (rhos[cases, :, None] * maps.transfer[rows].reshape(-1, 4, 4)).sum(axis=1)
    finals = qcore.renormalize(outputs.reshape(-1, 2, 2), chosen)
    states = qcore.DensityMatrix.from_stack(finals, (2,))
    fidelities = qcore.fidelities_pure(vecs[cases], finals)
    branches = [
        BranchResult(
            probability, dict(zip(maps.keys, maps.bits[row])), fidelity, state,
            maps.transcripts[row],
        )
        for row, probability, fidelity, state in zip(
            rows.tolist(), chosen.tolist(), fidelities.tolist(), states
        )
    ]
    ends = np.bincount(cases, minlength=len(msgs)).cumsum().tolist()
    return tuple(
        ProtocolResult(msg, maps.n, maps.x, policy, tuple(branches[start:end]))
        for msg, start, end in zip(msgs, [0] + ends[:-1], ends)
    )


def _tampered(maps, factors):
    """``maps`` with each node's effect and each branch's map scaled by
    ``factors`` (one per branch, or one per entry |j><k| of the input); no
    check_branch_maps runs on it."""
    factors = np.asarray(factors, dtype=float)
    if factors.shape == (2, 2):
        return dataclasses.replace(
            maps, effects=maps.effects * factors, transfer=maps.transfer * factors[..., None, None]
        )
    effects = maps.effects.copy()
    effects[len(effects) - len(factors) :] *= factors[:, None, None]
    return dataclasses.replace(
        maps, effects=effects, transfer=maps.transfer * factors[:, None, None, None, None]
    )


ZERO, ONE = MessageState(1.0, 0.0), MessageState(0.0, 1.0)
#: Scales only the input's |1><1| entry: only messages with a |1> part move.
ONLY_ONE = [[1.0, 1.0], [1.0, 1 + 1e-6]]


def _bad_evaluations():
    """(map, messages, the start of the error an exhaustive evaluation
    raises)."""
    good = branch_map("switch", 2, 1)
    one_branch = branch_map("noiseless", 1, 1)
    assert len(one_branch.bits) == 1
    # message |1> reaches neither child of the root, so it keeps no branch
    no_children = good.effects.copy()
    no_children[[1, 2], 1, 1] = 0.0
    return [
        (_tampered(one_branch, [1 + 1e-6]), [RANDOM_MSG], "branch probability 1.000001"),
        (_tampered(one_branch, [-1.0]), [RANDOM_MSG], "branch probability -1.0 outside"),
        # only the last message of a batch fails
        (_tampered(one_branch, ONLY_ONE), [ZERO, ZERO, ONE], "branch probability 1.000001"),
        (_tampered(good, ONLY_ONE), [ZERO, ZERO, ONE], "branch probabilities sum to 1.0000"),
        (dataclasses.replace(good, effects=no_children), [ZERO, ONE], "protocol produced no"),
        # the first failing branch in order is named
        (_tampered(good, [1.0, 5.0, 1.0, 7.0]), [RANDOM_MSG], "branch probability 1.2"),
        # final states of trace 3/2 fail the state check first
        (dataclasses.replace(good, transfer=good.transfer * 1.5), [RANDOM_MSG], "state trace"),
    ]


def test_evaluate_runs_the_result_checks():
    # dataclasses.replace runs no check_branch_maps
    good = branch_map("switch", 2, 1)
    good.evaluate(RANDOM_MSG)
    scale = 1 + 1e-6
    scaled = dataclasses.replace(good, transfer=good.transfer * scale, effects=good.effects * scale)
    with pytest.raises(ValidityError, match="branch probabilities sum to"):
        scaled.evaluate(RANDOM_MSG)
    for node in (0, len(good.effects) - 1):  # the root, and a leaf
        effects = good.effects.copy()
        effects[node, 0, 0] = np.nan
        with pytest.raises(ValidityError):
            dataclasses.replace(good, effects=effects).evaluate(RANDOM_MSG)
    # the checks run once on the evaluation's arrays; under either policy
    # they must raise exactly what the public ProtocolResult raises on the
    # first failing result, and pass what it passes
    for maps, msgs, start in _bad_evaluations():
        with pytest.raises(ValidityError, match=f"^{re.escape(start)}"):
            maps.evaluate_many(msgs)
        for policy in POLICIES:
            try:
                want = _reference_evaluate(maps, msgs, policy)
            except ValidityError as error:
                with pytest.raises(ValidityError, match=f"^{re.escape(str(error))}$"):
                    maps.evaluate_many(msgs, policy)
            else:
                assert _fields(maps.evaluate_many(msgs, policy)) == _fields(want)


def test_sampled_walk_without_a_reachable_outcome_raises_validity_error():
    # a NaN root effect leaves no outcome at PROB_FLOOR, under either policy
    good = branch_map("switch", 2, 1)
    effects = good.effects.copy()
    effects[0, 0, 0] = np.nan
    bad = dataclasses.replace(good, effects=effects)
    for policy in (OutcomePolicy.exhaustive(), OutcomePolicy.sample(0)):
        with pytest.raises(ValidityError, match="protocol produced no branches"):
            bad.evaluate(RANDOM_MSG, policy)


@pytest.mark.filterwarnings("error")
def test_sampled_walk_from_a_zeroed_root_raises_validity_error():
    # a zero root probability ends the walk before any division by it
    good = branch_map("switch", 2, 1)
    effects = good.effects.copy()
    effects[0] = 0.0
    bad = dataclasses.replace(good, effects=effects)
    with pytest.raises(ValidityError, match="protocol produced no branches"):
        bad.evaluate(RANDOM_MSG, OutcomePolicy.sample(0))


def _node_probabilities(maps, msgs):
    """Each message's node probabilities, by ``evaluate_many``'s own
    products and sums."""
    vecs = np.array([(m.alpha, m.beta) for m in msgs], dtype=complex)
    rhos = (vecs[:, :, None] * vecs[:, None, :].conj()).reshape(-1, 4)
    return (rhos[:, None, :] * maps.effects.reshape(1, -1, 4)).sum(axis=-1).real


_BAD_NODES = [
    *[([0], value) for value in (0.0, -0.5, np.inf, -np.inf, np.nan)],
    *[([1, 2], value) for value in (0.0, -0.5, np.inf, -np.inf, np.nan)],
    ([1], np.inf),
    ([2], np.inf),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nodes, value", _BAD_NODES)
def test_walk_through_a_bad_node_raises_validity_error(nodes, value):
    # the root, both children of the root, or one infinite child: no walk
    # may divide by zero, step through a node of zero, negative or
    # non-finite probability, or draw from weights that do not sum to a
    # finite value
    maps = branch_map("switch", 2, 1)
    assert maps.children[0] == (1, 2)
    (probs,) = _node_probabilities(maps, [RANDOM_MSG]).tolist()
    for node in nodes:
        probs[node] = value
    with pytest.raises(ValidityError, match="protocol produced no branches"):
        maps._walk(probs, np.random.default_rng(0))


def _fields(record):
    """A record as data to compare bit for bit: records by their type and
    fields, arrays by their bytes, shape, dtype and writeability, floats by
    their type and bits, dicts by their items in order. A transcript counts
    by its identity: every result takes its map's. Dataclasses count by
    their fields, read as attributes: a result's private column slot is not
    one, and its records are built when read."""
    if isinstance(record, np.ndarray):
        return record.tobytes(), record.shape, record.dtype, record.flags.writeable
    if isinstance(record, float):
        return type(record), record.hex()
    if isinstance(record, dict):
        return dict, [(k, _fields(v)) for k, v in record.items()]
    if isinstance(record, tuple):
        return tuple(_fields(v) for v in record)
    if isinstance(record, Transcript):
        return Transcript, id(record)
    if dataclasses.is_dataclass(record):
        return type(record), [
            (f.name, _fields(getattr(record, f.name))) for f in dataclasses.fields(record)
        ]
    return type(record), record


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("variant", list(RUNNERS))
@settings(max_examples=4, deadline=None)
@given(msgs=st.lists(messages(), min_size=1, max_size=4), seed=st.integers(0, 2**31 - 1))
def test_evaluated_records_equal_checked_ones(variant, n, msgs, seed):
    # every record evaluate_many builds without its constructor's checks
    # equals, bit for bit, the one a reference evaluation builds through
    # DensityMatrix.from_stack and the public, checking constructors; the
    # reference gathers each kept branch's transfer row, where an exhaustive
    # evaluation broadcasts over every (message, branch) pair. |0> and |1>
    # put exact zeros into the products
    msgs = [ZERO, *msgs, ONE]
    for x in range(1, n + 1):
        maps = branch_map(variant, n, x)
        for policy in (OutcomePolicy.exhaustive(), OutcomePolicy.sample(seed)):
            results = maps.evaluate_many(msgs, policy)
            assert _fields(results) == _fields(_reference_evaluate(maps, msgs, policy))
            for result in results:
                for br in result.branches:
                    assert br.final_state.dims == (2,)
                    assert not br.final_state.matrix.flags.writeable


def _moved_on_one(maps):
    """``maps`` with its last branch's weight moved onto its sibling through
    the input's |1><1| entry alone: |1> reaches that branch with probability
    0, so an exhaustive evaluation cuts it there, and |0> keeps it. The
    moved map is not completely positive, so only |0> and |1> give valid
    states; no check_branch_maps runs on it."""
    leaf = len(maps.bits) - 1
    node, parent = maps.paths[leaf, -1], maps.paths[leaf, -2]
    (sibling,) = set(maps.children[parent]) - {node}
    effects, transfer = maps.effects.copy(), maps.transfer.copy()
    effects[sibling, 1, 1] += effects[node, 1, 1]
    effects[node, 1, 1] = 0.0
    # the leaves are the last nodes, in branch order
    transfer[leaf - node + sibling, 1, 1] += transfer[leaf, 1, 1]
    transfer[leaf, 1, 1] = 0.0
    return dataclasses.replace(maps, effects=effects, transfer=transfer)


@pytest.mark.filterwarnings("error")
def test_a_batch_cuts_a_branch_for_some_messages_and_keeps_it_for_others():
    # one batch cuts the moved branch for |1> and keeps it for |0>: the cut
    # branch is dropped before the renormalization divides by its zero
    # probability, and every field is the gathering reference's, bit for bit
    msgs = [ONE, ZERO, ONE, ZERO]
    for variant in RUNNERS:
        for n in range(1, 7):
            for maps in branch_maps(variant, n, range(1, n + 1)):
                if len(maps.bits) == 1:
                    continue
                moved = _moved_on_one(maps)
                for policy in POLICIES:
                    results = moved.evaluate_many(msgs, policy)
                    assert _fields(results) == _fields(_reference_evaluate(moved, msgs, policy))
                counts = [len(r.branches) for r in moved.evaluate_many(msgs)]
                assert counts == [len(maps.bits) - 1, len(maps.bits)] * 2


@pytest.mark.parametrize(
    "variant, n, x, policy",
    [
        ("switch", 6, 3, OutcomePolicy.exhaustive()),
        ("baseline", 2, 1, OutcomePolicy.sample(5)),
        ("controlled-ops", 3, 2, OutcomePolicy.exhaustive()),
    ],
)
def test_results_are_views_that_build_their_records_when_read(variant, n, x, policy, built_records):
    maps = branch_map(variant, n, x)
    msgs = [RANDOM_MSG, MessageState.plus(), MessageState(0.28, -0.96j)]
    want = _reference_evaluate(maps, msgs, policy)
    by_message = maps.evaluate_columns(msgs, policy).fidelities_by_message()
    results = maps.evaluate_many(msgs, policy)
    built_records.clear()  # the reference's records
    # fidelities read from the columns are the records' values, bit for bit
    for result, reference, fidelity in zip(results, want, by_message):
        assert result.fidelity.hex() == reference.fidelity.hex() == fidelity.hex()
        assert result.min_fidelity.hex() == reference.min_fidelity.hex()
    assert built_records == []
    # a result builds its own records on first read, and keeps them
    branches = results[1].branches
    assert results[1].branches is branches
    assert len(built_records) == len(branches)
    assert _fields(results) == _fields(want)
    assert _fields(copy.copy(results[2])) == _fields(want[2])
    with pytest.raises(AttributeError, match="no attribute 'probability'"):
        results[0].probability


def test_branch_map_check_rejects_conjugated_off_diagonal_inputs(monkeypatch):
    # |-i> in place of |+i> swaps the images of |0><1| and |1><0|: the
    # branch maps become the switch's identity channels composed with the
    # transpose, which is not completely positive
    spanning = protocols._SPANNING[:3] + (MessageState(1 / np.sqrt(2), -1j / np.sqrt(2)),)
    monkeypatch.setattr(protocols, "_SPANNING", spanning)
    with pytest.raises(ValidityError, match="completely positive"):
        protocols._build_maps("switch", 2, [1])


def _drop_last(bits, probabilities, states):
    return bits[:-1], probabilities[:-1], states[:-1]


def _reverse(bits, probabilities, states):
    return bits[::-1], probabilities[::-1], states[::-1]


@pytest.mark.parametrize("tamper", [_drop_last, _reverse], ids=["drop", "reorder"])
def test_branch_map_build_rejects_passes_that_disagree(monkeypatch, tamper):
    # the second pass reaches other branches (or the same ones in another
    # order); its outputs must not be paired with the first pass's branches
    engine = protocols._retrieve
    calls = []

    def tampered_second_pass(*args):
        run = engine(*args)
        calls.append(run)
        if len(calls) != 2:
            return run
        tampered = copy.copy(run)
        bits, probabilities, tampered.states = tamper(*run.levels[-1], run.states)
        tampered.levels = run.levels[:-1] + ((bits, probabilities),)
        return tampered

    monkeypatch.setattr(protocols, "_retrieve", tampered_second_pass)
    with pytest.raises(ValidityError, match="different branches"):
        protocols._build_maps("switch", 2, [1])
    assert len(calls) == 4


def test_branch_map_build_rejects_inputs_that_reach_different_branches(monkeypatch):
    # a helper party reads the last of n + 1 GHZ factors in the computational
    # basis: |0> reaches only outcome 0 and |1> only outcome 1, so the
    # spanning inputs' runs have different branch trees
    def probe_stage(msg, n):
        batch = protocols._Batch(ghz_encode(msg, n + 1).density(), protocols._receivers(n))
        helper = Party("HELPER", frozenset({n}))
        batch.announce(protocols._Announcement(helper, n, "computational", "probe", BROADCAST))
        return batch

    monkeypatch.setitem(protocols._STAGES, "probe", probe_stage)
    zero = protocols._simulate("probe", protocols._SPANNING[0], 3, 1)
    one = protocols._simulate("probe", protocols._SPANNING[1], 3, 1)
    assert zero.levels[1][0] == ((0,),) and one.levels[1][0] == ((1,),)
    with pytest.raises(ValidityError, match="different branches"):
        protocols._build_maps("probe", 3, [1])


@pytest.mark.parametrize("variant", list(RUNNERS))
def test_maps_built_together_equal_maps_built_alone(variant):
    # the x of one build retrieve from the same engine runs, which no
    # retrieval may change
    n, order = 3, (1, 2, 3, 1)
    together = protocols._build_maps(variant, n, order)
    for built, x in zip(together, order):
        (alone,) = protocols._build_maps(variant, n, [x])
        assert _map_bytes(built) == _map_bytes(alone)
    maps = branch_maps(variant, n, [2, 1, 2])
    assert maps == (branch_map(variant, n, 2), branch_map(variant, n, 1), maps[0])
    assert branch_maps(variant, n, []) == ()


def _map_bytes(maps):
    """Every field of a branch map as data to compare bit for bit: arrays by
    their bytes, shape, dtype and writeability, transcripts by their events'
    fields (an ``Operator`` compares by identity, so by its entries)."""
    fields = []
    for f in dataclasses.fields(maps):
        value = getattr(maps, f.name)
        if isinstance(value, np.ndarray):
            value = value.tobytes(), value.shape, value.dtype, value.flags.writeable
        elif f.name == "transcripts":
            value = [(_rows(t.events), t.allow_nonlocal) for t in value]
        fields.append((f.name, value))
    return fields


def test_stage_runs_are_kept_per_variant_and_n(monkeypatch):
    # each (variant, n) runs its distribution stage once per spanning input,
    # and the maps built from the kept runs one x at a time, in any order,
    # are those built together, bit for bit
    calls = {}

    def counted(variant, stage):
        def run(msg, n):
            calls[variant, n] = calls.get((variant, n), 0) + 1
            return stage(msg, n)

        return run

    for variant, stage in list(protocols._STAGES.items()):
        monkeypatch.setitem(protocols._STAGES, variant, counted(variant, stage))
    keys = [(variant, n) for variant in RUNNERS for n in range(1, 7)]
    monkeypatch.setattr(protocols, "_MAPS", {})
    monkeypatch.setattr(protocols, "_STAGE_RUNS", {})
    together = {(v, n): branch_maps(v, n, range(1, n + 1)) for v, n in keys}
    assert calls == {key: 4 for key in keys}
    monkeypatch.setattr(protocols, "_MAPS", {})
    monkeypatch.setattr(protocols, "_STAGE_RUNS", {})
    calls.clear()
    singles = [(v, n, x) for v, n in keys for x in range(1, n + 1)]
    for i in np.random.default_rng(0).permutation(len(singles)):
        variant, n, x = singles[i]
        alone = branch_map(variant, n, x)
        assert alone is not together[variant, n][x - 1]
        assert _map_bytes(alone) == _map_bytes(together[variant, n][x - 1])
    assert calls == {key: 4 for key in keys}
    assert len(protocols._STAGE_RUNS) <= 4 * qcore.MAX_RECEIVERS


def _replayed_bits(run, rng):
    """The outcome bits a seeded walk draws from the engine's own branch
    probabilities: one ``rng.choice`` per announcement over the outcomes whose
    conditional probability reaches the floor."""
    probability = {
        bits: p for level_bits, ps in run.levels for bits, p in zip(level_bits, ps)
    }
    node = ()
    for _ in run.keys:
        row = np.array([probability.get(node + (o,), 0.0) / probability[node] for o in (0, 1)])
        (alive,) = np.nonzero(row >= qcore.PROB_FLOOR)
        kept = row[alive]
        node += (int(alive[rng.choice(len(alive), p=kept / kept.sum())]),)
    return node


@settings(max_examples=60, deadline=None)
@given(
    messages(),
    st.sampled_from(list(RUNNERS)),
    st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**31 - 1),
)
def test_maps_match_the_engine_on_drawn_messages(msg, variant, key, seed):
    n, x = key
    run = protocols._simulate(variant, msg, n, x)
    bits, probabilities = run.levels[-1]
    transcripts = run.transcripts()
    vec = msg.ket().amplitudes
    result = RUNNERS[variant](msg, n, x, OutcomePolicy.exhaustive())
    assert [tuple(b.outcomes.values()) for b in result.branches] == list(bits)
    for branch, p, state, transcript in zip(result.branches, probabilities, run.states, transcripts):
        assert list(branch.outcomes) == list(run.keys)
        assert abs(branch.probability - p) < 1e-12
        np.testing.assert_allclose(branch.final_state.matrix, state, rtol=0, atol=1e-12)
        assert abs(branch.fidelity - np.real(vec.conj() @ state @ vec)) < 1e-12
        assert _rows(branch.transcript.events) == _rows(transcript.events)
    (sampled,) = RUNNERS[variant](msg, n, x, OutcomePolicy.sample(seed)).branches
    drawn = _replayed_bits(run, np.random.default_rng(seed))
    assert tuple(sampled.outcomes.values()) == drawn
    twin = list(bits).index(drawn)
    assert abs(sampled.probability - probabilities[twin]) < 1e-12
    np.testing.assert_allclose(sampled.final_state.matrix, run.states[twin], rtol=0, atol=1e-12)
    assert _rows(sampled.transcript.events) == _rows(transcripts[twin].events)


def _choice_walk(maps, probs, rng):
    """The branch row a seeded walk reaches with one ``rng.choice`` per
    announcement over the map's own conditional probabilities, outcomes below
    the floor excluded: the reference for ``BranchMap._walk``."""
    probs = np.asarray(probs)
    node = 0
    for _ in maps.keys:
        kids = np.array(maps.children[node])
        row = np.where(kids >= 0, probs[kids] / probs[node], 0.0)
        (alive,) = np.nonzero(row >= qcore.PROB_FLOOR)
        kept = row[alive]
        node = int(kids[alive[rng.choice(len(alive), p=kept / kept.sum())]])
    return node - (len(probs) - len(maps.bits))


def _ancilla_stage(msg, n):
    """GHZ distribution plus a helper's ancilla in |0>, which the helper
    announces first in the computational basis: outcome 1 never occurs, so
    the root keeps one outcome. No variant cuts a branch on any message, as
    every announced outcome has conditional probability 1/2."""
    amplitudes = np.kron(ghz_encode(msg, n).amplitudes, qcore.KET0.amplitudes)
    state = qcore.Ket(amplitudes, (2,) * (n + 1)).density()
    batch = protocols._Batch(state, protocols._receivers(n))
    helper = Party("HELPER", frozenset({n}))
    batch.announce(protocols._Announcement(helper, n, "computational", "ancilla", BROADCAST))
    return batch


@functools.lru_cache(maxsize=None)
def _ancilla_maps(n):
    with mock.patch.dict(protocols._STAGES, {"ancilla": _ancilla_stage}):
        maps = protocols._build_maps("ancilla", n, range(1, n + 1))
    assert all(m.children[0] == (1, -1) for m in maps)
    return maps


@settings(max_examples=20, deadline=None)
@given(st.lists(messages(), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_walk_draws_what_rng_choice_draws(drawn, seed):
    # every variant's maps, and maps whose root keeps one outcome, which
    # must still consume a draw
    msgs = [MessageState.zero(), MessageState(0.0, 1.0), *drawn]
    for n in range(1, 7):
        every = [m for variant in RUNNERS for m in branch_maps(variant, n, range(1, n + 1))]
        for maps in every + list(_ancilla_maps(n)):
            probs = _node_probabilities(maps, msgs)
            walked, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = [maps._walk(row, walked) for row in probs.tolist()]
            assert rows == [_choice_walk(maps, row, reference) for row in probs]
            assert walked.random() == reference.random()
            sampled = maps.evaluate_many(msgs, OutcomePolicy.sample(seed))
            outcomes = [r.branches[0].outcomes for r in sampled]
            assert outcomes == [maps.outcomes[row] for row in rows]


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "2", "--count", "2000", "--seed", "3"],
        ["--n", "6", "--x", "4", "--count", "500", "--seed", "8"],
    ],
    ids=["n2", "n6"],
)
def test_baseline_sweep_reports_match_the_choice_walk(tmp_path, monkeypatch, flags):
    argv = ["baseline-sweep", *flags, "--format", "json", "--output"]
    assert cli.main(argv + [str(tmp_path / "walk.json")]) == cli.EXIT_OK
    calls = []

    def counted(maps, probs, rng):
        calls.append(1)
        return _choice_walk(maps, probs, rng)

    monkeypatch.setattr(protocols.BranchMap, "_walk", counted)
    assert cli.main(argv + [str(tmp_path / "choice.json")]) == cli.EXIT_OK
    assert len(calls) == int(flags[flags.index("--count") + 1])
    assert (tmp_path / "walk.json").read_bytes() == (tmp_path / "choice.json").read_bytes()


def _values(result):
    """Every value of a result, floats and states as their bits."""
    return [
        (
            branch.probability.hex(),
            branch.fidelity.hex(),
            tuple(branch.outcomes.items()),
            branch.final_state.matrix.tobytes(),
            branch.transcript,
        )
        for branch in result.branches
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(messages(), min_size=1, max_size=6),
    st.sampled_from(list(RUNNERS)),
    st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**31 - 1),
)
def test_evaluating_many_messages_matches_one_at_a_time(msgs, variant, key, seed):
    # exhaustively, each message's values must not depend on the batch it is
    # evaluated in
    maps = branch_map(variant, *key)
    exhaustive = maps.evaluate_many(msgs, OutcomePolicy.exhaustive())
    for msg, result in zip(msgs, exhaustive):
        assert _values(result) == _values(maps.evaluate(msg))
    # sampled, the messages walk in order on one generator seeded once: a
    # replay of one stream over the engine's own probabilities picks each
    # branch, whose values are the exhaustive ones bit for bit
    policy = OutcomePolicy.sample(seed)
    sampled = maps.evaluate_many(msgs, policy)
    stream = np.random.default_rng(seed)
    for msg, result, full in zip(msgs, sampled, exhaustive):
        drawn = _replayed_bits(protocols._simulate(variant, msg, *key), stream)
        (branch,) = [b for b in full.branches if tuple(b.outcomes.values()) == drawn]
        alone = dataclasses.replace(full, policy=policy, branches=(branch,))
        assert _values(result) == _values(alone)
    assert _values(sampled[0]) == _values(maps.evaluate(msgs[0], policy))
    for together, used in ((exhaustive, OutcomePolicy.exhaustive()), (sampled, policy)):
        assert [r.message for r in together] == msgs
        assert all(r.policy == used and (r.n, r.x) == key for r in together)
    assert maps.evaluate_many([]) == ()


def test_sampled_sweep_reaches_both_baseline_branches():
    # the messages of `baseline-sweep --count 2000 --seed 3` each draw their
    # own trajectory, so both branches occur
    rng = np.random.default_rng(3)
    messages = [haar_message(rng) for _ in range(2000)]
    results = branch_map("baseline", 2, 1).evaluate_many(messages, OutcomePolicy.sample(3))
    reached = [tuple(r.branches[0].outcomes.items()) for r in results]
    assert set(reached) == {(("B2", 0),), (("B2", 1),)}
    # the drawn outcomes follow the branch probabilities, here 1/2 each
    assert abs(reached.count((("B2", 0),)) - 1000) < 150


_REIMPORT = """
import gc, importlib, sys, weakref

def fresh():
    for name in [m for m in sys.modules if m == "rrqc" or m.startswith("rrqc.")]:
        del sys.modules[name]
    return importlib.import_module("rrqc.cli")

fresh()
first = weakref.ref(sys.modules["rrqc.qcore"])
from rrqc import protocols, qswitch
protocols.branch_map("switch", 2, 1)
qswitch.validate_closed_forms(0, 1, ns=(1,))
del protocols, qswitch
fresh()
gc.collect()
print("alive" if first() is not None else "freed")
"""


def test_a_fresh_import_frees_the_old_modules():
    # dropping every rrqc module and importing again must leave nothing
    # holding the old ones, or each import keeps its own caches; run in a
    # child process, since this process holds rrqc through the tests
    env = dict(os.environ, PYTHONPATH=str(Path(protocols.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _REIMPORT], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.split() == ["freed"]

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrqc import channels, qcore, qswitch
from rrqc.channels import (
    FULL_DEPHASING,
    IDENTITY,
    N_XY,
    PauliChannel,
    choi,
    compose,
    is_entanglement_breaking_qubit,
    pauli_kraus,
)
from rrqc.qcore import DimensionMismatchError, ValidityError


def weight_tuples():
    """Nonnegative 4-tuples normalized onto the weight simplex."""
    return (
        st.tuples(*(st.floats(0.0, 1.0) for _ in range(4)))
        .filter(lambda w: sum(w) > 0.1)
        .map(lambda w: tuple(x / sum(w) for x in w))
    )


def channel_strategy():
    return weight_tuples().map(lambda w: PauliChannel(*w))


# ---------------------------------------------------------------------------
# Pauli algebra
# ---------------------------------------------------------------------------


def test_pauli_product_table_matches_matrices():
    mats = [qcore.I2.entries, qcore.X.entries, qcore.Y.entries, qcore.Z.entries]
    for a in range(4):
        for b in range(4):
            phase, c = channels.pauli_product(a, b)
            np.testing.assert_allclose(
                mats[a] @ mats[b], (1j**phase) * mats[c], atol=1e-12
            )


def test_paulis_anticommute_iff_distinct_and_nonidentity():
    for a in range(4):
        for b in range(4):
            mats = [qcore.I2.entries, qcore.X.entries, qcore.Y.entries, qcore.Z.entries]
            anti = np.abs(mats[a] @ mats[b] + mats[b] @ mats[a]).max() < 1e-12
            assert channels.paulis_anticommute(a, b) == anti


def test_pauli_string_builds_kronecker_product():
    zi = channels.pauli_string(("Z", "I"))
    np.testing.assert_array_equal(zi.entries, np.kron(qcore.Z.entries, np.eye(2)))
    with pytest.raises(ValueError):
        channels.pauli_string(("Q",))


# ---------------------------------------------------------------------------
# PauliChannel and Kraus form
# ---------------------------------------------------------------------------


def test_weights_must_be_normalized_and_nonnegative():
    with pytest.raises(ValidityError):
        PauliChannel(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValidityError):
        PauliChannel(0.5, 0.5, 0.5, 0.5)


@pytest.mark.parametrize("weights", [(np.nan, 0, 0, 1), (0.5, np.nan, 0.0, 0.5)])
def test_nan_weight_is_rejected(weights):
    with pytest.raises(ValidityError):
        PauliChannel(*weights)


def test_pauli_kraus_identity_channel():
    ops = pauli_kraus(IDENTITY)
    assert ops.shape == (1, 2, 2)
    np.testing.assert_array_equal(ops[0], np.eye(2))


def test_pauli_kraus_nxy_channel():
    ops = pauli_kraus(N_XY)
    assert ops.shape == (2, 2, 2)
    np.testing.assert_allclose(ops[0], qcore.X.entries / np.sqrt(2))
    np.testing.assert_allclose(ops[1], qcore.Y.entries / np.sqrt(2))


def test_pauli_kraus_uniform_channel_completeness():
    # sum over sigma_l^dag sigma_l / 4 = I
    ops = pauli_kraus(PauliChannel(0.25, 0.25, 0.25, 0.25))
    assert ops.shape == (4, 2, 2)
    assert qcore.kraus_defect(ops) < 1e-12


@settings(max_examples=50)
@given(channel_strategy())
def test_pauli_kraus_always_complete(ch):
    assert qcore.kraus_defect(pauli_kraus(ch)) < 1e-12


@settings(max_examples=50)
@given(st.lists(channel_strategy(), min_size=1, max_size=3))
def test_product_pauli_kraus_matches_kronecker_chain(factors):
    # reference: Kronecker products of the factors' Kraus sets, first slowest;
    # the amplitudes multiply in the same order, so entries agree exactly
    ref = [np.array([[1.0 + 0j]])]
    for ch in factors:
        ref = [np.kron(op, k) for op in ref for k in pauli_kraus(ch)]
    ops = channels.product_pauli_kraus(factors)
    assert ops.shape == (len(ref),) + (2 ** len(factors),) * 2
    np.testing.assert_array_equal(ops, ref)


def sparse_channels():
    """Pauli channels on a drawn nonempty support, so that zero weights,
    which the Kraus sets drop, come up often."""

    def channel(drawn):
        support, raw = drawn
        masked = [w if keep else 0.0 for keep, w in zip(support, raw)]
        return PauliChannel(*(w / sum(masked) for w in masked))

    support = st.lists(st.booleans(), min_size=4, max_size=4).filter(any)
    raw = st.tuples(*(st.floats(0.01, 1.0) for _ in range(4)))
    return st.tuples(support, raw).map(channel)


def operator_pauli_kraus(ch):
    """The per-Operator Kraus list that ``pauli_kraus`` returned before Kraus
    sets became stacks."""
    mats = [op.entries for op in (qcore.I2, qcore.X, qcore.Y, qcore.Z)]
    return [qcore.Operator(np.sqrt(w) * mat, (2,)) for w, mat in zip(ch.weights, mats) if w > 0.0]


def operator_product_pauli_kraus(factors):
    """The per-Operator Kraus list that ``product_pauli_kraus`` returned
    before Kraus sets became stacks: per string of nonzero-weight labels,
    first factor slowest, the amplitudes multiplied left to right times the
    string's matrix."""
    terms = [
        [(np.sqrt(w), label) for w, label in zip(ch.weights, channels.PAULI_LABELS) if w > 0.0]
        for ch in factors
    ]
    dims = (2,) * len(factors)
    out = []
    for combo in itertools.product(*terms):
        amps, labels = zip(*combo)
        out.append(qcore.Operator(math.prod(amps) * channels.pauli_string_matrix(labels), dims))
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(sparse_channels(), min_size=1, max_size=3))
def test_kraus_stacks_equal_the_operator_lists_bit_for_bit(factors):
    single = pauli_kraus(factors[0])
    expected = [op.entries for op in operator_pauli_kraus(factors[0])]
    assert single.shape == (len(expected), 2, 2)
    assert single.tobytes() == np.stack(expected).tobytes()
    product = channels.product_pauli_kraus(factors)
    expected = [op.entries for op in operator_product_pauli_kraus(factors)]
    assert product.shape == (len(expected),) + (2 ** len(factors),) * 2
    assert product.dtype == complex
    assert product.tobytes() == np.stack(expected).tobytes()


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_identity_is_unit():
    ch = PauliChannel(0.1, 0.2, 0.3, 0.4)
    for left, right in ((IDENTITY, ch), (ch, IDENTITY)):
        out = compose(left, right)
        np.testing.assert_allclose(out.weights, ch.weights, atol=1e-12)


def test_compose_nxy_with_itself_is_full_dephasing():
    # XX = YY = I contribute to w_I, XY and YX are Z up to phase
    out = compose(N_XY, N_XY)
    np.testing.assert_allclose(out.weights, (0.5, 0.0, 0.0, 0.5), atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(channel_strategy(), channel_strategy(), channel_strategy())
def test_compose_is_associative(a, b, c):
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    np.testing.assert_allclose(left.weights, right.weights, atol=1e-9)


def test_compose_agrees_with_sequential_kraus_application():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = channels.random_pauli_channel(rng)
        b = channels.random_pauli_channel(rng)
        rho = qcore.random_density((2,), rng)
        stepwise = qcore.apply_kraus(qcore.apply_kraus(rho, pauli_kraus(a)), pauli_kraus(b))
        direct = qcore.apply_kraus(rho, pauli_kraus(compose(a, b)))
        np.testing.assert_allclose(stepwise.matrix, direct.matrix, atol=1e-9)


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------


def bell_phi_plus():
    vec = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return np.outer(vec, vec)


def test_choi_identity_is_maximally_entangled_state():
    np.testing.assert_allclose(
        choi(pauli_kraus(IDENTITY)).matrix, bell_phi_plus(), atol=1e-12
    )


def test_choi_nxy_is_mixture_of_flipped_bells():
    # (X x I)|Phi+> and (Y x I)|Phi+> are the |01>/|10> Bell pair, so the
    # Choi matrix is diag(0, 1/2, 1/2, 0)
    np.testing.assert_allclose(
        choi(pauli_kraus(N_XY)).matrix, np.diag([0, 0.5, 0.5, 0]), atol=1e-12
    )


def test_choi_full_dephasing():
    np.testing.assert_allclose(
        choi(pauli_kraus(FULL_DEPHASING)).matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12
    )


def test_choi_rejects_incomplete_kraus():
    with pytest.raises(qcore.CompletenessError):
        choi(0.5 * qcore.X.entries[None])


def test_choi_takes_one_kraus_stack():
    with pytest.raises(DimensionMismatchError):
        choi([qcore.I2])
    with pytest.raises(DimensionMismatchError):
        choi(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        choi(pauli_kraus(N_XY)[None])


def test_choi_of_pauli_channel_is_bell_diagonal_with_weight_spectrum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ch = channels.random_pauli_channel(rng)
        spectrum = np.sort(np.linalg.eigvalsh(choi(pauli_kraus(ch)).matrix))
        np.testing.assert_allclose(spectrum, np.sort(ch.weights), atol=1e-12)


def test_choi_of_a_rectangular_kraus_set_is_on_output_and_reference():
    # the switch with its control absorbed maps a qubit to qubit (x) control
    kraus = qswitch.switched_kraus(
        pauli_kraus(N_XY), pauli_kraus(N_XY), qcore.KET_PLUS.density()
    )
    assert kraus.shape == (4, 4, 2)
    state = choi(kraus)
    assert isinstance(state, qcore.DensityMatrix)
    assert state.dims == (4, 2)
    with pytest.raises(DimensionMismatchError, match="2x2 Choi"):
        is_entanglement_breaking_qubit(state)


# ---------------------------------------------------------------------------
# entanglement-breaking certification
# ---------------------------------------------------------------------------


def test_nxy_certified_entanglement_breaking():
    verdict = is_entanglement_breaking_qubit(choi(pauli_kraus(N_XY)))
    assert verdict.entanglement_breaking
    assert abs(verdict.witness) < 1e-12


def test_identity_channel_not_entanglement_breaking():
    # the partial transpose of |Phi+><Phi+| has eigenvalue -1/2
    verdict = is_entanglement_breaking_qubit(choi(pauli_kraus(IDENTITY)))
    assert not verdict.entanglement_breaking
    assert abs(verdict.witness + 0.5) < 1e-12


def test_full_dephasing_entanglement_breaking():
    # diagonal Choi matrix is invariant under partial transposition
    verdict = is_entanglement_breaking_qubit(choi(pauli_kraus(FULL_DEPHASING)))
    assert verdict.entanglement_breaking


def test_eb_check_rejects_non_qubit_choi():
    state = qcore.random_density((4, 2), np.random.default_rng(2))
    with pytest.raises(DimensionMismatchError):
        is_entanglement_breaking_qubit(state)


def test_random_pauli_channel_is_reproducible():
    a = channels.random_pauli_channel(np.random.default_rng(3))
    b = channels.random_pauli_channel(np.random.default_rng(3))
    assert a == b
    assert all(w >= 0 for w in a.weights)

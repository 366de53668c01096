import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrqc import channels, nogo, protocols, qcore, qswitch
from rrqc.qcore import (
    CompletenessError,
    DensityMatrix,
    DimensionMismatchError,
    Ket,
    Operator,
    ValidityError,
)

def random_operator(rng, side):
    return Operator(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)), (side,))


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_identity():
    out = qcore.tensor(qcore.I2, qcore.I2)
    np.testing.assert_array_equal(out.entries, np.eye(4))
    assert out.dims == (2, 2)


def test_tensor_zz_squares_to_identity():
    zz = qcore.tensor(qcore.Z, qcore.Z)
    np.testing.assert_array_equal(zz.entries @ zz.entries, np.eye(4))


def test_tensor_matches_kronecker_index_formula():
    # oracle: (A x B)[i*rB + k, j*cB + l] = A[i, j] * B[k, l]
    a = qcore.X
    b = qcore.PROJ0
    out = qcore.tensor(a, b)
    assert out.entries[2, 0] == 1.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert out.entries[2 * i + k, 2 * j + l] == (
                        a.entries[i, j] * b.entries[k, l]
                    )


def test_tensor_mixed_product_rule():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = random_operator(rng, 2), random_operator(rng, 2)
        c, d = random_operator(rng, 3), random_operator(rng, 3)
        left = qcore.tensor(a, c).entries @ qcore.tensor(b, d).entries
        right = qcore.tensor(
            Operator(a.entries @ b.entries, (2,)), Operator(c.entries @ d.entries, (3,))
        )
        np.testing.assert_allclose(left, right.entries, atol=1e-12)


def test_tensor_is_associative_up_to_dims():
    rng = np.random.default_rng(8)
    a, b, c = (random_operator(rng, 2) for _ in range(3))
    left = qcore.tensor(qcore.tensor(a, b), c)
    right = qcore.tensor(a, qcore.tensor(b, c))
    np.testing.assert_allclose(left.entries, right.entries, atol=1e-12)
    assert left.dims == right.dims == (2, 2, 2)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def bell_density():
    return Ket([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], (2, 2)).density()


def test_partial_trace_bell_is_maximally_mixed():
    for keep in ({0}, {1}):
        reduced = qcore.partial_trace(bell_density(), keep)
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(9)
    rho = qcore.random_density((2,), rng)
    sigma = qcore.random_density((3,), rng)
    joint = DensityMatrix.from_matrix(np.kron(rho.matrix, sigma.matrix), (2, 3))
    np.testing.assert_allclose(
        qcore.partial_trace(joint, {0}).matrix, rho.matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        qcore.partial_trace(joint, {1}).matrix, sigma.matrix, atol=1e-12
    )


def test_partial_trace_product_over_seeded_draws():
    # leftmost factor is factor 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rho = qcore.random_density((2,), rng)
        sigma = qcore.random_density((2,), rng)
        joint = DensityMatrix.from_matrix(np.kron(rho.matrix, sigma.matrix), (2, 2))
        np.testing.assert_allclose(
            qcore.partial_trace(joint, {0}).matrix, rho.matrix, atol=1e-12
        )


def test_partial_trace_hand_expanded_entangled_pair():
    # |psi> = 0.6|00> + 0.8|11>; the 4x4 density matrix has entries
    # 0.36 at (0,0), 0.48 at (0,3) and (3,0), 0.64 at (3,3)
    rho = Ket([0.6, 0, 0, 0.8], (2, 2)).density()
    expected = np.zeros((4, 4))
    expected[0, 0], expected[0, 3] = 0.36, 0.48
    expected[3, 0], expected[3, 3] = 0.48, 0.64
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
    reduced = qcore.partial_trace(rho, {1})
    np.testing.assert_allclose(reduced.matrix, np.diag([0.36, 0.64]), atol=1e-12)


def test_partial_trace_preserves_trace_and_order():
    rng = np.random.default_rng(10)
    rho = qcore.random_density((2, 2, 2), rng)
    reduced = qcore.partial_trace(rho, {0, 2})
    assert reduced.dims == (2, 2)
    assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12


def test_partial_trace_rejects_bad_index():
    with pytest.raises(DimensionMismatchError):
        qcore.partial_trace(bell_density(), {2})
    with pytest.raises(DimensionMismatchError):
        qcore.partial_trace(bell_density(), set())


def test_partial_trace_takes_integer_factors_only():
    # {0.9} used to keep factor 0
    with pytest.raises(TypeError):
        qcore.partial_trace(bell_density(), {0.9})
    with pytest.raises(TypeError):
        qcore.partial_trace(bell_density(), {1.0})
    reduced = qcore.partial_trace(bell_density(), {np.int64(1)})
    assert reduced.dims == (2,)
    assert np.allclose(reduced.matrix, np.eye(2) / 2)


# ---------------------------------------------------------------------------
# apply_kraus
# ---------------------------------------------------------------------------


def xy_kraus():
    return np.stack([qcore.X.entries, qcore.Y.entries]) / np.sqrt(2)


def test_apply_kraus_identity():
    rho = qcore.random_density((2, 2), np.random.default_rng(11))
    out = qcore.apply_kraus(rho, np.eye(4)[None])
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_apply_kraus_xy_on_zero():
    # X|0><0|X = |1><1| and Y|0><0|Y^dag = |1><1|, so the mixture is |1><1|
    out = qcore.apply_kraus(qcore.KET0.density(), xy_kraus())
    np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_apply_kraus_xy_on_plus():
    # X|+> = |+> while Y|+> = -i|->, so the mixture averages to I/2
    out = qcore.apply_kraus(qcore.KET_PLUS.density(), xy_kraus())
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_apply_kraus_rejects_incomplete_set():
    with pytest.raises(CompletenessError):
        qcore.apply_kraus(qcore.KET0.density(), 0.5 * qcore.X.entries[None])


def random_cptp_kraus(rng, dim, count):
    """Random channel: vertical stack of Kraus blocks forms an isometry."""
    g = rng.normal(size=(dim * count, dim)) + 1j * rng.normal(size=(dim * count, dim))
    q, _ = np.linalg.qr(g)
    return q.reshape(count, dim, dim)


def test_apply_kraus_preserves_trace_and_positivity():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        kraus = random_cptp_kraus(rng, 4, 3)
        rho = qcore.random_density((4,), rng)
        out = qcore.apply_kraus(rho, kraus)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(out.matrix).min() > -1e-9


def test_recombine_kraus_leaves_channel_unchanged():
    rng = np.random.default_rng(12)
    kraus = xy_kraus()
    rho = qcore.random_density((2,), rng)
    base = qcore.apply_kraus(rho, kraus)
    mixed = qcore.recombine_kraus(kraus, qcore.random_unitary(2, rng))
    np.testing.assert_allclose(
        qcore.apply_kraus(rho, mixed).matrix, base.matrix, atol=1e-12
    )
    # padding isometry: three operators representing the same channel
    iso = qcore.random_unitary(3, rng)[:, :2]
    padded = qcore.recombine_kraus(kraus, iso)
    assert padded.shape == (3, 2, 2)
    literal = [sum(c * k for c, k in zip(row, kraus)) for row in iso]
    np.testing.assert_allclose(padded, literal, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        qcore.apply_kraus(rho, padded).matrix, base.matrix, atol=1e-12
    )


def test_recombine_kraus_rejects_non_isometry():
    with pytest.raises(ValidityError):
        qcore.recombine_kraus(xy_kraus(), np.ones((2, 2)))
    with pytest.raises(DimensionMismatchError):
        qcore.recombine_kraus(xy_kraus(), np.eye(3))


def test_apply_kraus_takes_only_square_stacks_on_the_acted_space():
    rho = qcore.random_density((2, 2), np.random.default_rng(13))
    isometry = np.eye(4)[:, :2][None]  # a complete (1, 4, 2) set
    with pytest.raises(DimensionMismatchError):
        qcore.apply_kraus(rho, [qcore.identity((2, 2))])
    with pytest.raises(DimensionMismatchError):
        qcore.apply_kraus(rho, isometry)
    with pytest.raises(DimensionMismatchError):
        qcore.apply_kraus(rho, xy_kraus())
    with pytest.raises(DimensionMismatchError):
        qcore.apply_kraus(rho, np.eye(4)[None], factor=1)
    with pytest.raises(DimensionMismatchError):
        qcore.apply_kraus(rho, xy_kraus(), factor=2)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def test_measure_plus_state_in_fourier_basis():
    result = qcore.measure_projective(
        qcore.KET_PLUS.density(), (qcore.PROJ_PLUS, qcore.PROJ_MINUS), 0
    )
    assert len(result) == 1
    assert result.dropped == (1,)
    label, prob, state = result[0]
    assert label == 0 and abs(prob - 1.0) < 1e-12
    np.testing.assert_allclose(state.matrix, qcore.PROJ_PLUS.entries, atol=1e-12)


def test_measure_maximally_mixed_in_z_basis():
    mixed = DensityMatrix.from_matrix(np.eye(2) / 2, (2,))
    result = qcore.measure_projective(mixed, (qcore.PROJ0, qcore.PROJ1), 0)
    assert [o.label for o in result] == [0, 1]
    for outcome, target in zip(result, (qcore.PROJ0, qcore.PROJ1)):
        assert abs(outcome.probability - 0.5) < 1e-12
        np.testing.assert_allclose(outcome.state.matrix, target.entries, atol=1e-12)


def test_measure_rejects_incomplete_projectors():
    with pytest.raises(CompletenessError):
        qcore.measure_projective(qcore.KET0.density(), (qcore.PROJ0,), 0)
    skew = Operator([[0.5, 0.5], [0.5, 0.5]], (2,))
    with pytest.raises(CompletenessError):
        qcore.measure_projective(qcore.KET0.density(), (skew, skew), 0)


def test_measure_probabilities_sum_to_one():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rho = qcore.random_density((2, 2), rng)
        result = qcore.measure_projective(rho, (qcore.PROJ_PLUS, qcore.PROJ_MINUS), 1)
        assert abs(sum(o.probability for o in result) - 1.0) < 1e-9
        for outcome in result:
            assert np.linalg.eigvalsh(outcome.state.matrix).min() > -1e-9


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_with_itself_and_orthogonal():
    rng = np.random.default_rng(13)
    psi = qcore.random_ket((2,), rng)
    assert abs(qcore.fidelity_pure(psi, psi.density()) - 1.0) < 1e-12
    assert qcore.fidelity_pure(qcore.KET0, qcore.KET1.density()) == 0.0


def test_fidelity_after_full_dephasing_of_plus():
    # (rho + Z rho Z) / 2 wipes the off-diagonals, leaving <+|I/2|+> = 1/2
    rho = qcore.KET_PLUS.density().matrix
    dephased = (rho + qcore.Z.entries @ rho @ qcore.Z.entries) / 2
    value = qcore.fidelity_pure(
        qcore.KET_PLUS, DensityMatrix.from_matrix(dephased, (2,))
    )
    assert abs(value - 0.5) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        qcore.fidelity_pure(qcore.KET0, bell_density())
    with pytest.raises(DimensionMismatchError):
        qcore.fidelities_pure(qcore.KET0.amplitudes, bell_density().matrix[None])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_stacked_fidelities_match_the_per_state_overlap(qubits, count, seed):
    rng = np.random.default_rng(seed)
    dims = (2,) * qubits
    target = qcore.random_ket(dims, rng)
    stack = np.stack([qcore.random_density(dims, rng).matrix for _ in range(count)])
    stack[0] = target.density().matrix
    vec = target.amplitudes
    values = qcore.fidelities_pure(vec, stack)
    literal = [float(np.real(vec.conj() @ state @ vec)) for state in stack]
    np.testing.assert_allclose(values, literal, rtol=0, atol=1e-15)
    assert abs(values[0] - 1.0) < 1e-12
    single = qcore.fidelity_pure(target, DensityMatrix.from_matrix(stack[-1], dims))
    assert abs(single - values[-1]) < 1e-15
    # one target per state; a shared target gives the same bits as its copies
    targets = np.stack([qcore.random_ket(dims, rng).amplitudes for _ in range(count)])
    per_state = qcore.fidelities_pure(targets, stack)
    literal = [float(np.real(v.conj() @ state @ v)) for v, state in zip(targets, stack)]
    np.testing.assert_allclose(per_state, literal, rtol=0, atol=1e-15)
    copies = qcore.fidelities_pure(np.tile(vec, (count, 1)), stack)
    assert copies.tobytes() == values.tobytes()
    with pytest.raises(DimensionMismatchError):
        qcore.fidelities_pure(targets[:-1] if count > 1 else targets[:, :1], stack)


@pytest.mark.parametrize("value", [np.nan, 1.5, -0.5])
def test_stacked_fidelities_reject_values_outside_the_unit_interval(value):
    # overlaps of non-states, which no validated state can give
    stack = np.array([np.eye(2) / 2, np.diag([value, 0.0])], dtype=complex)
    with pytest.raises(ValidityError, match="outside"):
        qcore.fidelities_pure(qcore.KET0.amplitudes, stack)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


def test_operator_rejects_nonfinite_entries():
    with pytest.raises(ValidityError):
        Operator([[np.nan, 0], [0, 1]], (2,))
    with pytest.raises(ValidityError):
        Operator([[np.inf, 0], [0, 1]], (2,))


def test_operator_rejects_dims_mismatch():
    with pytest.raises(DimensionMismatchError):
        Operator(np.eye(4), (2, 3))
    # an Operator is square: a rectangular matrix fits no dims
    for rect in (np.ones((4, 2)), np.ones((2, 4))):
        for dims in ((4,), (2,)):
            with pytest.raises(DimensionMismatchError):
                Operator(rect, dims)


def test_dims_take_integers_only():
    # (2.9,) used to become (2,)
    with pytest.raises(TypeError):
        Operator(np.eye(2), (2.9,))
    with pytest.raises(TypeError):
        Operator(np.eye(2), (2.0,))
    with pytest.raises(TypeError):
        qcore.identity((2.0,))
    with pytest.raises(TypeError):
        DensityMatrix(np.eye(2) / 2, (2.5,))
    for dims in ((np.int64(2), np.int8(2)), np.array([2, 2])):
        op = Operator(np.eye(4), dims)
        assert op.dims == (2, 2) and all(type(d) is int for d in op.dims)
        assert qcore.identity(dims).dims == (2, 2)


_PLUS = protocols.MessageState.plus()


@pytest.mark.parametrize(
    "call",
    [
        lambda: qcore.identity((2, True)),
        lambda: qcore.partial_trace(bell_density(), {True}),
        lambda: protocols.OutcomePolicy.sample(True),
        lambda: protocols.branch_maps("switch", True, [1]),
        lambda: protocols.branch_maps("switch", 2, [True]),
        lambda: protocols.run_switch_protocol(_PLUS, True, True),
        lambda: qswitch.validate_closed_forms(0, True, (1,)),
        lambda: qswitch.validate_closed_forms(0, 1, (True,)),
        lambda: qswitch.validate_closed_forms(True, 2, (1,)),
        lambda: nogo.fixed_bit_scan(True),
        lambda: nogo.PermutationPair((True, 2), 2),
    ],
    ids=[
        "dims",
        "partial-trace",
        "seed",
        "branch-maps-n",
        "branch-maps-x",
        "run-protocol",
        "trials",
        "validate-n",
        "validate-seed",
        "scan",
        "permutation",
    ],
)
def test_bools_are_not_integers(call):
    # operator.index reads True as 1: each of these ran with n, x, a seed,
    # a trial count, a factor or an image of 1 (or, for the scan, said "got 1")
    with pytest.raises(TypeError, match="expected an integer, got True"):
        call()


def test_ket_rejects_unnormalized_vector():
    with pytest.raises(ValidityError):
        Ket([1.0, 1.0], (2,))


@given(st.floats(0.01, 0.99))
def test_ket_accepts_normalized_amplitudes(p):
    Ket([np.sqrt(p), np.sqrt(1 - p)], (2,))


def test_density_matrix_rejects_invalid_states():
    with pytest.raises(ValidityError):
        DensityMatrix.from_matrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]), (2,))
    with pytest.raises(ValidityError):
        DensityMatrix.from_matrix(np.eye(2), (2,))
    with pytest.raises(ValidityError):
        DensityMatrix.from_matrix(np.diag([1.5, -0.5]), (2,))


def test_density_matrix_rejects_malformed_matrices():
    # the entry and shape checks of a matrix on a register, before the
    # state checks
    with pytest.raises(ValidityError, match="NaN or Inf"):
        DensityMatrix.from_matrix([[np.nan, 0], [0, 1]], (2,))
    with pytest.raises(ValidityError, match="NaN or Inf"):
        DensityMatrix.from_matrix([[np.inf, 0], [0, 1]], (2,))
    with pytest.raises(DimensionMismatchError, match="matrix shape"):
        DensityMatrix.from_matrix(np.eye(4) / 4, (2, 3))
    with pytest.raises(DimensionMismatchError, match="matrix shape"):
        DensityMatrix.from_matrix(np.ones((2, 4)) / 4, (2,))
    with pytest.raises(DimensionMismatchError, match="2-dimensional"):
        DensityMatrix.from_matrix([0.5, 0.5], (2,))
    with pytest.raises(DimensionMismatchError, match="invalid factor"):
        DensityMatrix.from_matrix(np.eye(2) / 2, (2, 0))


def test_density_matrix_holds_a_read_only_copy_and_its_dims():
    matrix = np.eye(4) / 4
    state = DensityMatrix.from_matrix(matrix, [2, np.int64(2)])
    assert [f.name for f in dataclasses.fields(DensityMatrix)] == ["matrix", "dims"]
    assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)
    assert state.matrix.dtype == complex and not state.matrix.flags.writeable
    matrix[0, 0] = 1.0
    assert state.matrix[0, 0] == 0.25
    (row,) = DensityMatrix.from_stack(np.eye(4)[None] / 4, (2, 2))
    assert vars(row).keys() == vars(state).keys() and row.dims == state.dims


def test_density_matrices_from_a_stack_are_checked_once_as_a_stack(monkeypatch):
    rng = np.random.default_rng(22)
    stack = np.stack([qcore.random_density((2, 2), rng).matrix for _ in range(3)])
    checked = []
    check = qcore.check_states
    monkeypatch.setattr(qcore, "check_states", lambda s: checked.append(s.shape) or check(s))
    states = DensityMatrix.from_stack(stack, (2, 2))
    assert checked == [(3, 4, 4)]
    assert [s.dims for s in states] == [(2, 2)] * 3
    for state, matrix in zip(states, stack):
        assert isinstance(state, DensityMatrix)
        assert state.matrix.tobytes() == matrix.tobytes()
        assert not state.matrix.flags.writeable
    stack[0] = np.eye(4) / 4  # the states hold their own copy
    assert states[0].matrix.tobytes() != stack[0].tobytes()


def test_density_matrices_from_a_stack_reject_any_invalid_row():
    good = np.eye(2) / 2
    for bad in (np.diag([1.5, -0.5]), np.eye(2), np.array([[0.5, 0.5j], [0.5j, 0.5]])):
        with pytest.raises(ValidityError):
            DensityMatrix.from_stack(np.array([good, bad, good], dtype=complex), (2,))
    with pytest.raises(DimensionMismatchError):
        DensityMatrix.from_stack(np.array([good]), (2, 2))


def test_empty_stacks_have_nothing_to_check():
    qcore.check_states(np.zeros((0, 2, 2), dtype=complex))
    assert DensityMatrix.from_stack(np.zeros((0, 4, 4)), (2, 2)) == ()
    assert qcore.fidelities_pure(np.zeros((0, 2)), np.zeros((0, 2, 2))).shape == (0,)
    with pytest.raises(DimensionMismatchError):
        DensityMatrix.from_stack(np.zeros((0, 2, 2)), (2, 2))


def test_controlled_not_action_on_basis():
    gate = qcore.controlled_not(2, 0, 1)
    # |10> -> |11>, |11> -> |10>, control bits untouched
    np.testing.assert_array_equal(gate.entries @ np.eye(4)[:, 2], np.eye(4)[:, 3])
    np.testing.assert_array_equal(gate.entries @ np.eye(4)[:, 3], np.eye(4)[:, 2])
    np.testing.assert_array_equal(gate.entries @ np.eye(4)[:, 0], np.eye(4)[:, 0])
    reversed_gate = qcore.controlled_not(2, 1, 0)
    np.testing.assert_array_equal(reversed_gate.entries @ np.eye(4)[:, 1], np.eye(4)[:, 3])


def test_embed_places_operator_on_requested_factor():
    full = qcore.embed(qcore.Z, 1, (2, 2, 2))
    expected = np.kron(np.kron(np.eye(2), qcore.Z.entries), np.eye(2))
    np.testing.assert_array_equal(full.entries, expected)
    with pytest.raises(DimensionMismatchError):
        qcore.embed(qcore.Z, 3, (2, 2))


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_random_density_is_valid_state(seed):
    rho = qcore.random_density((2, 2), np.random.default_rng(seed))
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho.matrix).min() > -1e-9


# ---------------------------------------------------------------------------
# factor-local kernels against the dense embedded reference
# ---------------------------------------------------------------------------


def fit_register(dims):
    """Longest prefix of ``dims`` whose total dimension stays within 128."""
    while np.prod(dims) > 128:
        dims = dims[:-1]
    return tuple(dims)


def registers(min_factors=1):
    """Factor dimensions of 2 or 3 with total dimension 2..128, plus a factor."""
    dims = st.lists(st.sampled_from([2, 3]), min_size=min_factors, max_size=7).map(
        fit_register
    )
    return dims.flatmap(lambda d: st.tuples(st.just(d), st.integers(0, len(d) - 1)))


def dense_conjugate(rho, gate, factor):
    full = qcore.embed(gate, factor, rho.dims).entries
    return full @ rho.matrix @ full.conj().T


@settings(max_examples=40, deadline=None)
@given(registers(), st.integers(0, 2**32 - 1))
def test_local_gate_matches_embedded_gate(register, seed):
    dims, factor = register
    rng = np.random.default_rng(seed)
    rho = qcore.random_density(dims, rng)
    gate = Operator(qcore.random_unitary(dims[factor], rng), (dims[factor],))
    out = qcore.apply_kraus(rho, gate.entries[None], factor=factor)
    assert out.dims == rho.dims
    np.testing.assert_allclose(
        out.matrix, dense_conjugate(rho, gate, factor), rtol=0, atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(registers(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_local_kraus_matches_embedded_kraus(register, seed, count):
    dims, factor = register
    rng = np.random.default_rng(seed)
    rho = qcore.random_density(dims, rng)
    kraus = random_cptp_kraus(rng, dims[factor], count)
    local = qcore.apply_kraus(rho, kraus, factor=factor)
    embedded = np.stack(
        [qcore.embed(Operator(k, (dims[factor],)), factor, dims).entries for k in kraus]
    )
    dense = qcore.apply_kraus(rho, embedded)
    np.testing.assert_allclose(local.matrix, dense.matrix, rtol=0, atol=1e-12)
    assert abs(qcore.kraus_defect(kraus) - qcore.kraus_defect(embedded)) < 1e-12


def random_basis_projectors(rng, side):
    basis = qcore.random_unitary(side, rng)
    return tuple(Operator(np.outer(v, v.conj()), (side,)) for v in basis.T)


@settings(max_examples=40, deadline=None)
@given(registers(), st.integers(0, 2**32 - 1))
def test_measure_projective_matches_embedded_projectors(register, seed):
    dims, factor = register
    rng = np.random.default_rng(seed)
    rho = qcore.random_density(dims, rng)
    projectors = random_basis_projectors(rng, dims[factor])
    measured = qcore.measure_projective(rho, projectors, factor)
    assert [o.label for o in measured] == list(range(len(projectors)))
    for outcome, proj in zip(measured, projectors):
        post = dense_conjugate(rho, proj, factor)
        prob = np.trace(post).real
        assert abs(outcome.probability - prob) < 1e-12
        assert outcome.state.dims == dims
        np.testing.assert_allclose(outcome.state.matrix, post / prob, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    registers(min_factors=2), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3)
)
def test_project_and_discard_matches_traced_measure_projective(register, seed, pure, count):
    dims, factor = register
    rng = np.random.default_rng(seed)
    # pure product states with a basis vector on the measured factor make
    # some outcomes drop below PROB_FLOOR
    states = []
    for _ in range(count):
        if pure:
            kets = [qcore.random_ket((d,), rng).amplitudes for d in dims]
            kets[factor] = np.eye(dims[factor])[rng.integers(dims[factor])]
            vec = kets[0]
            for k in kets[1:]:
                vec = np.kron(vec, k)
            states.append(Ket(vec, dims).density())
        else:
            states.append(qcore.random_density(dims, rng))
    if pure:
        projectors = tuple(
            Operator(np.diag(np.eye(dims[factor])[i]), (dims[factor],))
            for i in range(dims[factor])
        )
    else:
        projectors = random_basis_projectors(rng, dims[factor])
    kept = [i for i in range(len(dims)) if i != factor]
    stack = np.stack([rho.matrix for rho in states])
    probs, posts = qcore.project_and_discard(
        stack, qcore.projector_set(projectors), factor, dims
    )
    assert probs.shape == (count, len(projectors))
    for rho, row, row_posts in zip(states, probs, posts):
        full = qcore.measure_projective(rho, projectors, factor)
        labels = [label for label, p in enumerate(row) if p >= qcore.PROB_FLOOR]
        assert tuple(label for label, p in enumerate(row) if p < qcore.PROB_FLOOR) == full.dropped
        assert labels == [o.label for o in full]
        for label, big in zip(labels, full):
            assert abs(row[label] - big.probability) < 1e-12
            small = qcore.renormalize(row_posts[label : label + 1], row[label : label + 1])[0]
            reduced = qcore.partial_trace(big.state, kept)
            assert small.shape == reduced.matrix.shape
            np.testing.assert_allclose(small, reduced.matrix, rtol=0, atol=1e-12)


def test_project_and_discard_runs_the_projector_checks():
    rho = bell_density()
    with pytest.raises(CompletenessError):
        qcore.projector_set((qcore.PROJ0,))
    skew = Operator([[0.5, 0.5], [0.5, 0.5]], (2,))
    with pytest.raises(CompletenessError):
        qcore.projector_set((skew, skew))
    basis = qcore.projector_set((qcore.PROJ0, qcore.PROJ1))
    with pytest.raises(DimensionMismatchError):
        qcore.project_and_discard(rho.matrix[None], basis, 2, rho.dims)
    with pytest.raises(DimensionMismatchError):
        qcore.project_and_discard(qcore.KET0.density().matrix[None], basis, 0, (2,))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_cnot_permutation_matches_dense_cnot(register, seed):
    n, (control, target) = register
    dims = (2,) * n
    rho = qcore.random_density(dims, np.random.default_rng(seed))
    # independent reference: |0><0|_c (x) I + |1><1|_c (x) X_t
    gate = (
        qcore.embed(qcore.PROJ0, control, dims).entries
        + qcore.embed(qcore.PROJ1, control, dims).entries
        @ qcore.embed(qcore.X, target, dims).entries
    )
    np.testing.assert_array_equal(qcore.controlled_not(n, control, target).entries, gate)
    perm = qcore.cnot_permutation(n, control, target)
    np.testing.assert_allclose(
        rho.matrix[perm][:, perm], gate @ rho.matrix @ gate.T, rtol=0, atol=1e-12
    )


# ---------------------------------------------------------------------------
# stacked state check
# ---------------------------------------------------------------------------


def per_state_verdict(mat, tol=qcore.ATOL):
    """The one-state check that ``check_states`` replaced: its error
    message, or None for a valid state."""
    if np.abs(mat - mat.conj().T).max() > tol:
        return "state is not Hermitian within tolerance"
    if abs(np.trace(mat) - 1.0) > tol:
        return f"state trace {np.trace(mat)} is not 1"
    lo = float(np.linalg.eigvalsh(mat).min())
    if lo < -tol:
        return f"state has negative eigenvalue {lo}"
    return None


def stacked_verdict(stack):
    try:
        qcore.check_states(stack)
    except ValidityError as exc:
        return str(exc)
    return None


def boundary_state(rng, side, lowest):
    """U diag(lambda) U^dag with smallest eigenvalue ``lowest`` and unit trace."""
    rest = rng.uniform(0.1, 1.0, size=side - 1)
    lam = np.concatenate(([lowest], rest / rest.sum() * (1.0 - lowest)))
    u = qcore.random_unitary(side, rng)
    mat = (u * lam) @ u.conj().T
    return (mat + mat.conj().T) / 2


def assert_boundary_verdict(side, count, delta, seed):
    """Draw ``count`` states of side ``side``, each with its lowest
    eigenvalue ``delta`` above or below -tol, and check that ``check_states``
    gives ``eigvalsh``'s verdict and message; returns the stack."""
    rng = np.random.default_rng(seed)
    below = rng.random(count) < 0.5
    lowest = np.where(below, -qcore.ATOL - delta, -qcore.ATOL + delta)
    stack = np.stack([boundary_state(rng, side, lo) for lo in lowest])
    eigen_lows = np.linalg.eigvalsh(stack).min(axis=1)
    expected_fail = bool(eigen_lows.min() < -qcore.ATOL)
    assert expected_fail == bool(below.any())
    verdict = stacked_verdict(stack)
    if expected_fail:
        first = float(eigen_lows[np.argmax(eigen_lows < -qcore.ATOL)])
        assert verdict == f"state has negative eigenvalue {first}"
    else:
        assert verdict is None
    return stack


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 128),
    st.integers(1, 64),
    st.floats(1e-12, 1e-10),
    st.integers(0, 2**32 - 1),
)
def test_check_states_cholesky_verdict_matches_eigvalsh(side, count, delta, seed):
    assert_boundary_verdict(side, count, delta, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.floats(1e-12, 1e-10), st.integers(0, 2**32 - 1))
def test_check_states_qubit_verdict_matches_eigvalsh(count, delta, seed):
    # qubit stacks take the closed-form lowest eigenvalue, which must read
    # the complex off-diagonal entries
    stack = assert_boundary_verdict(2, count, delta, seed)
    assert (np.abs(stack[:, 1, 0].imag) > 0).all()


@pytest.mark.parametrize(
    "shape", [(2, 2), (1, 2, 3), (3, 1, 2, 2), (4,), (), (0, 2, 3)], ids=str
)
def test_check_states_takes_stacks_of_square_matrices_only(shape):
    with pytest.raises(DimensionMismatchError, match="stack of states"):
        qcore.check_states(np.zeros(shape, dtype=complex))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 32),
    st.integers(1, 16),
    st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)]),
    st.integers(0, 2**32 - 1),
)
def test_check_states_rejects_nonfinite_entries(side, count, value, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([qcore.random_density((side,), rng).matrix for _ in range(count)])
    stack[rng.integers(count), rng.integers(side), rng.integers(side)] = value
    with pytest.raises(ValidityError, match="NaN or Inf"):
        qcore.check_states(stack)


def test_check_states_messages_match_the_per_state_check():
    rng = np.random.default_rng(21)
    invalid = [
        np.array([[0.5, 0.5j], [0.5j, 0.5]]),
        np.eye(2),
        np.diag([1.5, -0.5]),
        qcore.random_density((3,), rng).matrix * 1.1,
        boundary_state(rng, 8, -1e-6),
    ]
    skew = qcore.random_density((4,), rng).matrix.copy()
    skew[0, 1] += 1e-6
    invalid.append(skew)
    for mat in invalid:
        mat = mat.astype(complex)
        message = per_state_verdict(mat)
        assert message is not None
        assert stacked_verdict(mat[None]) == message
        with pytest.raises(ValidityError) as caught:
            DensityMatrix.from_matrix(mat, (mat.shape[0],))
        assert str(caught.value) == message
        # a valid state ahead of it in a stack leaves the message unchanged
        valid = np.eye(mat.shape[0]) / mat.shape[0]
        assert stacked_verdict(np.stack([valid, mat])) == message


# ---------------------------------------------------------------------------
# one completeness check, one tolerance
# ---------------------------------------------------------------------------


def literal_defect(mats):
    acc = np.zeros((mats[0].shape[1],) * 2, dtype=complex)
    for k in mats:
        acc += k.conj().T @ k
    return float(np.abs(acc - np.eye(acc.shape[0])).max())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("complete", "shrunk", "random")),
)
def test_kraus_defect_matches_literal_sum(cols, out, count, seed, kind):
    # an (m, out, in) stack of operators from C^cols to C^out
    rng = np.random.default_rng(seed)
    rows = out * count
    flat = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    if kind != "random" and rows >= cols:
        flat = np.linalg.qr(flat)[0]  # an isometry splits into a complete set
        if kind == "shrunk":
            flat = flat * rng.uniform(0.3, 0.9)
    stack = flat.reshape(count, out, cols)
    expected = literal_defect(stack)
    assert abs(qcore.kraus_defect(stack) - expected) <= 1e-12
    # in a (2, 2, m, out, in) batch of sets, the worst set's defect
    batch = np.stack([[stack, 0.5 * stack], [stack, stack]])
    worst = max(expected, literal_defect(0.5 * stack))
    assert abs(qcore.kraus_defect(batch) - worst) <= 1e-12
    if abs(expected - qcore.ATOL) > 1e-12:
        if expected < qcore.ATOL:
            qcore.check_complete(stack)
        else:
            with pytest.raises(CompletenessError, match=r"^Kraus set incomplete \(defect"):
                qcore.check_complete(stack)


@pytest.mark.parametrize(
    "kraus",
    [[qcore.I2], [qcore.X, qcore.Y], [], [np.eye(2)], np.eye(2), np.ones(2)],
    ids=["operator", "operators", "empty-list", "array-list", "2-d", "1-d"],
)
def test_completeness_check_takes_only_kraus_stacks(kraus):
    with pytest.raises(DimensionMismatchError, match=r"an \(\.\.\., m, out, in\) array"):
        qcore.kraus_defect(kraus)
    with pytest.raises(DimensionMismatchError):
        qcore.check_complete(kraus)


def test_completeness_check_rejects_empty_and_nan_sets():
    for empty in (np.zeros((0, 2, 2)), np.zeros((3, 0, 2, 2))):
        with pytest.raises(CompletenessError, match="empty Kraus list"):
            qcore.kraus_defect(empty)
        with pytest.raises(CompletenessError, match="empty Kraus list"):
            qcore.check_complete(empty)
    with pytest.raises(CompletenessError, match=r"^stack incomplete \(defect nan\)"):
        qcore.check_complete(np.full((1, 2, 2), np.nan), "stack")


#: The only settable tolerances: validate-switch's pass threshold for Choi
#: deviations, which the CLI's --tolerance sets.
SETTABLE = {"rrqc.qswitch.validate_closed_forms", "rrqc.qswitch.ClosedFormValidation"}


def tolerance_takers():
    """Every function, class (constructor, methods, dataclass fields) or
    cached function defined in the simulator modules that takes ``atol`` or
    ``tolerance``."""
    found = set()
    for module in (qcore, channels, qswitch, protocols, nogo):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                params = set()
                if dataclasses.is_dataclass(obj):
                    params = {f.name for f in dataclasses.fields(obj)}
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if inspect.isfunction(member) or inspect.ismethod(member):
                        params |= set(inspect.signature(member).parameters)
            elif callable(obj):
                params = set(inspect.signature(obj).parameters)
            else:
                continue
            if params & {"atol", "tolerance"}:
                found.add(f"{module.__name__}.{name}")
    return found


def test_validity_checks_take_no_tolerance():
    assert tolerance_takers() == SETTABLE

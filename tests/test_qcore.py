import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrqc import qcore
from rrqc.qcore import (
    CompletenessError,
    DensityMatrix,
    DimensionMismatchError,
    Ket,
    Operator,
    ValidityError,
)

def random_operator(rng, rows, cols):
    return Operator(
        rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)),
        (rows,),
        (cols,),
    )


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_identity():
    out = qcore.tensor(qcore.I2, qcore.I2)
    np.testing.assert_array_equal(out.entries, np.eye(4))
    assert out.dims == (2, 2)


def test_tensor_zz_squares_to_identity():
    zz = qcore.tensor(qcore.Z, qcore.Z)
    np.testing.assert_array_equal((zz @ zz).entries, np.eye(4))


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
        a, b = random_operator(rng, 2, 3), random_operator(rng, 3, 2)
        c, d = random_operator(rng, 3, 2), random_operator(rng, 2, 3)
        left = qcore.tensor(a, c) @ qcore.tensor(b, d)
        right = qcore.tensor(a @ b, c @ d)
        np.testing.assert_allclose(left.entries, right.entries, atol=1e-12)


def test_tensor_is_associative_up_to_dims():
    rng = np.random.default_rng(8)
    a, b, c = (random_operator(rng, 2, 2) for _ in range(3))
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
    joint = rho.tensor(sigma)
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
        joint = rho.tensor(sigma)
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


# ---------------------------------------------------------------------------
# apply_kraus
# ---------------------------------------------------------------------------


def xy_kraus():
    s = 1 / np.sqrt(2)
    return [qcore.X * s, qcore.Y * s]


def test_apply_kraus_identity():
    rho = qcore.random_density((2, 2), np.random.default_rng(11))
    out = qcore.apply_kraus(rho, [qcore.identity((2, 2))])
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
        qcore.apply_kraus(qcore.KET0.density(), [qcore.X * 0.5])


def random_cptp_kraus(rng, dim, count):
    """Random channel: vertical stack of Kraus blocks forms an isometry."""
    g = rng.normal(size=(dim * count, dim)) + 1j * rng.normal(size=(dim * count, dim))
    q, _ = np.linalg.qr(g)
    return [Operator(q[i * dim : (i + 1) * dim, :], (dim,)) for i in range(count)]


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
    assert len(padded) == 3
    np.testing.assert_allclose(
        qcore.apply_kraus(rho, padded).matrix, base.matrix, atol=1e-12
    )


def test_recombine_kraus_rejects_non_isometry():
    with pytest.raises(ValidityError):
        qcore.recombine_kraus(xy_kraus(), np.ones((2, 2)))


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
    out = qcore.apply_kraus(rho, [gate], factor=factor)
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
    dense = qcore.apply_kraus(rho, [qcore.embed(k, factor, dims) for k in kraus])
    np.testing.assert_allclose(local.matrix, dense.matrix, rtol=0, atol=1e-12)
    assert abs(
        qcore.kraus_defect(kraus)
        - qcore.kraus_defect([qcore.embed(k, factor, dims) for k in kraus])
    ) < 1e-12


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
@given(registers(min_factors=2), st.integers(0, 2**32 - 1), st.booleans())
def test_measure_and_discard_matches_traced_measure_projective(register, seed, pure):
    dims, factor = register
    rng = np.random.default_rng(seed)
    # pure product states with a basis vector on the measured factor make
    # some outcomes drop below PROB_FLOOR
    if pure:
        kets = [qcore.random_ket((d,), rng).amplitudes for d in dims]
        kets[factor] = np.eye(dims[factor])[rng.integers(dims[factor])]
        vec = kets[0]
        for k in kets[1:]:
            vec = np.kron(vec, k)
        rho = Ket(vec, dims).density()
        projectors = tuple(
            Operator(np.diag(np.eye(dims[factor])[i]), (dims[factor],))
            for i in range(dims[factor])
        )
    else:
        rho = qcore.random_density(dims, rng)
        projectors = random_basis_projectors(rng, dims[factor])
    kept = [i for i in range(len(dims)) if i != factor]
    full = qcore.measure_projective(rho, projectors, factor)
    discarded = qcore.measure_and_discard(rho, projectors, factor)
    assert discarded.dropped == full.dropped
    assert [o.label for o in discarded] == [o.label for o in full]
    for small, big in zip(discarded, full):
        assert abs(small.probability - big.probability) < 1e-12
        reduced = qcore.partial_trace(big.state, kept)
        assert small.state.dims == reduced.dims
        np.testing.assert_allclose(small.state.matrix, reduced.matrix, rtol=0, atol=1e-12)


def test_measure_and_discard_runs_the_projector_checks():
    rho = bell_density()
    with pytest.raises(CompletenessError):
        qcore.measure_and_discard(rho, (qcore.PROJ0,), 0)
    skew = Operator([[0.5, 0.5], [0.5, 0.5]], (2,))
    with pytest.raises(CompletenessError):
        qcore.measure_and_discard(rho, (skew, skew), 0)
    with pytest.raises(DimensionMismatchError):
        qcore.measure_and_discard(rho, (qcore.PROJ0, qcore.PROJ1), 2)
    with pytest.raises(DimensionMismatchError):
        qcore.measure_and_discard(qcore.KET0.density(), (qcore.PROJ0, qcore.PROJ1), 0)


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
        qcore.embed(qcore.PROJ0, control, dims)
        + qcore.embed(qcore.PROJ1, control, dims) @ qcore.embed(qcore.X, target, dims)
    ).entries
    np.testing.assert_array_equal(qcore.controlled_not(n, control, target).entries, gate)
    perm = qcore.cnot_permutation(n, control, target)
    np.testing.assert_allclose(
        rho.matrix[perm][:, perm], gate @ rho.matrix @ gate.T, rtol=0, atol=1e-12
    )

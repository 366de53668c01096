import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rrqc import channels, qcore, qswitch
from rrqc.channels import IDENTITY, N_XY, pauli_kraus, product_pauli_kraus
from rrqc.qcore import CompletenessError, DensityMatrix, DimensionMismatchError, ValidityError

PLUS = qcore.KET_PLUS.density()
I2 = qcore.I2.entries[None]


def nxy_product(n):
    return product_pauli_kraus([N_XY] * n)


def conj(mat, rho):
    return mat @ rho @ mat.conj().T


# ---------------------------------------------------------------------------
# generic switch
# ---------------------------------------------------------------------------


def test_switch_of_identity_channels_is_product_with_control():
    rng = np.random.default_rng(0)
    rho = qcore.random_density((2,), rng)
    omega = qcore.random_density((2,), rng)
    out = qswitch.switch_generic(I2, I2, rho, omega)
    np.testing.assert_allclose(out.matrix, np.kron(rho.matrix, omega.matrix), atol=1e-12)


def test_switch_single_qubit_nxy_against_brute_force():
    # the four Kraus pair products are XX = I, XY = iZ, YX = -iZ, YY = I;
    # the equal-order pairs keep omega, the mixed ones conjugate it by Z
    rho = qcore.random_density((2,), np.random.default_rng(1))
    out = qswitch.switch_generic(pauli_kraus(N_XY), pauli_kraus(N_XY), rho, PLUS)
    z = qcore.Z.entries
    expected = 0.5 * np.kron(rho.matrix, qcore.PROJ_PLUS.entries) + 0.5 * np.kron(
        conj(z, rho.matrix), qcore.PROJ_MINUS.entries
    )
    np.testing.assert_allclose(out.matrix, expected, atol=1e-12)


def two_qubit_switch_expected(rho):
    """Four-term structure of the switched two-qubit equal-X/Y noise."""
    ii = np.eye(4)
    zz = channels.pauli_string(("Z", "Z")).entries
    iz = channels.pauli_string(("I", "Z")).entries
    zi = channels.pauli_string(("Z", "I")).entries
    plus_part = (conj(ii, rho) + conj(zz, rho)) / 4
    minus_part = (conj(iz, rho) + conj(zi, rho)) / 4
    return np.kron(plus_part, qcore.PROJ_PLUS.entries) + np.kron(
        minus_part, qcore.PROJ_MINUS.entries
    )


def test_switch_two_qubit_nxy_four_term_structure():
    rho = qcore.random_density((2, 2), np.random.default_rng(2))
    out = qswitch.switch_generic(nxy_product(2), nxy_product(2), rho, PLUS)
    np.testing.assert_allclose(out.matrix, two_qubit_switch_expected(rho.matrix), atol=1e-12)


def test_control_measurement_postselects_branch_channels():
    rho = qcore.random_density((2, 2), np.random.default_rng(3))
    out = qswitch.switch_generic(nxy_product(2), nxy_product(2), rho, PLUS)
    measured = qcore.measure_projective(out, (qcore.PROJ_PLUS, qcore.PROJ_MINUS), 2)
    assert [o.label for o in measured] == [0, 1]
    zz = channels.pauli_string(("Z", "Z")).entries
    iz = channels.pauli_string(("I", "Z")).entries
    zi = channels.pauli_string(("Z", "I")).entries
    conditionals = {
        0: (rho.matrix + conj(zz, rho.matrix)) / 2,
        1: (conj(iz, rho.matrix) + conj(zi, rho.matrix)) / 2,
    }
    for outcome in measured:
        assert abs(outcome.probability - 0.5) < 1e-12
        reduced = qcore.partial_trace(outcome.state, {0, 1})
        np.testing.assert_allclose(reduced.matrix, conditionals[outcome.label], atol=1e-12)


def test_switch_output_is_valid_state_for_random_channel_pairs():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = product_pauli_kraus([channels.random_pauli_channel(rng)])
        b = product_pauli_kraus([channels.random_pauli_channel(rng)])
        rho = qcore.random_density((2,), rng)
        omega = qcore.random_density((2,), rng)
        out = qswitch.switch_generic(a, b, rho, omega)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(out.matrix).min() > -1e-9


def test_switch_invariant_under_kraus_recombination():
    rng = np.random.default_rng(4)
    a = pauli_kraus(N_XY)
    b = pauli_kraus(channels.random_pauli_channel(rng))
    rho = qcore.random_density((2,), rng)
    omega = qcore.random_density((2,), rng)
    base = qswitch.switch_generic(a, b, rho, omega)
    for trial in range(10):
        mixing = (
            qcore.random_unitary(2, rng)
            if trial % 2
            else qcore.random_unitary(3, rng)[:, :2]
        )
        out = qswitch.switch_generic(qcore.recombine_kraus(a, mixing), b, rho, omega)
        assert np.abs(out.matrix - base.matrix).max() < 1e-9


def test_switch_rejects_bad_inputs():
    rho = qcore.random_density((2,), np.random.default_rng(5))
    with pytest.raises(CompletenessError):
        qswitch.switch_generic(0.5 * qcore.X.entries[None], I2, rho, PLUS)
    with pytest.raises(DimensionMismatchError):
        qswitch.switch_generic(
            nxy_product(2), nxy_product(2), rho, PLUS
        )
    with pytest.raises(DimensionMismatchError):
        qswitch.switch_generic(
            I2, I2, rho, qcore.random_density((2, 2), np.random.default_rng(6))
        )


@pytest.mark.parametrize(
    "a, b",
    [
        ([qcore.I2], I2),
        (I2, [qcore.I2]),
        (np.eye(2), I2),
        (I2, np.eye(4)[None]),
        (np.ones((1, 4, 2)), np.ones((1, 4, 2))),
    ],
    ids=["operator-list", "second-list", "2-d", "other-register", "rectangular"],
)
def test_switch_entry_points_take_matching_square_stacks(a, b):
    # the shapes are checked before any completeness Gram or switch product
    rho = qcore.random_density((2,), np.random.default_rng(5))
    sw = qswitch.closed_form_nxy_n(1)
    calls = [
        lambda: qswitch.switch_generic(a, b, rho, PLUS),
        lambda: qswitch.switch_kraus(a, b),
        lambda: qswitch.switched_kraus(a, b, PLUS),
        lambda: qswitch.choi_deviation(sw, a, b),
    ]
    with mock.patch.object(
        qcore, "check_complete", wraps=qcore.check_complete
    ) as check, mock.patch.object(qswitch, "_switch_of", wraps=qswitch._switch_of) as switch:
        for call in calls:
            with pytest.raises(DimensionMismatchError):
                call()
    assert check.call_count == 0
    assert switch.call_count == 0


def test_switch_kraus_stacks_have_the_documented_shapes():
    a, b = pauli_kraus(N_XY), pauli_kraus(channels.FULL_DEPHASING)
    assert qswitch.switch_kraus(a, b).shape == (4, 4, 4)
    # a full-rank control has two eigenvectors, each lifting every operator
    omega = qcore.random_density((2,), np.random.default_rng(3))
    assert qswitch.switched_kraus(a, b, omega).shape == (8, 4, 2)
    assert qswitch.switched_kraus(a, b, PLUS).shape == (4, 4, 2)
    rho = qcore.random_density((2, 2), np.random.default_rng(4))
    pair = nxy_product(2)
    assert qswitch.switch_generic(pair, pair, rho, PLUS).dims == (2, 2, 2)
    single = DensityMatrix.from_matrix(rho.matrix, (4,))
    assert qswitch.switch_generic(pair, pair, single, PLUS).dims == (4, 2)


def test_omega_minus_is_the_unchecked_z_conjugate():
    omega = qcore.random_ket((2,), np.random.default_rng(6)).density()
    sw = qswitch.closed_form_two_party(N_XY, channels.FULL_DEPHASING, omega)
    with mock.patch.object(qcore, "check_states", wraps=qcore.check_states) as check:
        minus = sw.omega_minus
    assert check.call_count == 0
    z = qcore.Z.entries
    assert minus.dims == (2,)
    assert minus.matrix.tobytes() == (z @ omega.matrix @ z).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        minus.matrix[0, 0] = 1.0
    assert sw.omega_minus is minus


def test_discarding_control_gives_definite_order_cascade():
    # Pauli channels commute, so the traced switch equals applying the
    # product channel twice in sequence
    rng = np.random.default_rng(7)
    for _ in range(5):
        e1 = channels.random_pauli_channel(rng)
        e2 = channels.random_pauli_channel(rng)
        ops = product_pauli_kraus([e1, e2])
        rho = qcore.random_density((2, 2), rng)
        omega = qcore.random_density((2,), rng)
        traced = qcore.partial_trace(qswitch.switch_generic(ops, ops, rho, omega), {0, 1})
        cascade = product_pauli_kraus(
            [channels.compose(e1, e1), channels.compose(e2, e2)]
        )
        np.testing.assert_allclose(
            traced.matrix, qcore.apply_kraus(rho, cascade).matrix, atol=1e-9
        )


def test_control_marginal_does_not_depend_on_message():
    rng = np.random.default_rng(8)
    ops = nxy_product(2)
    marginals = []
    for _ in range(20):
        rho = qcore.random_ket((2, 2), rng).density()
        out = qswitch.switch_generic(ops, ops, rho, PLUS)
        marginals.append(qcore.partial_trace(out, {2}).matrix)
    for marginal in marginals[1:]:
        assert np.abs(marginal - marginals[0]).max() < 1e-9


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_two_party_closed_form_for_nxy_pair():
    sw = qswitch.closed_form_two_party(N_XY, N_XY)
    assert sw.plus_strings == {("I", "I"): 0.5, ("Z", "Z"): 0.5}
    assert sw.minus_strings == {("I", "Z"): 0.5, ("Z", "I"): 0.5}
    assert sw.p_plus == 0.5 and sw.p_minus == 0.5


def test_two_party_closed_form_for_identity_channels():
    sw = qswitch.closed_form_two_party(IDENTITY, IDENTITY)
    assert sw.p_plus == 1.0 and sw.p_minus == 0.0
    assert sw.plus_strings == {("I", "I"): 1.0}


def test_two_party_closed_form_matches_generic_on_random_inputs():
    rng = np.random.default_rng(9)
    e1 = channels.random_pauli_channel(rng)
    e2 = channels.random_pauli_channel(rng)
    sw = qswitch.closed_form_two_party(e1, e2)
    ops = product_pauli_kraus([e1, e2])
    for _ in range(20):
        rho = qcore.random_density((2, 2), rng)
        generic = qswitch.switch_generic(ops, ops, rho, sw.omega_plus)
        assert np.abs(sw.apply(rho).matrix - generic.matrix).max() < 1e-9


def test_nxy_closed_form_single_qubit():
    sw = qswitch.closed_form_nxy_n(1)
    assert sw.plus_strings == {("I",): 1.0}
    assert sw.minus_strings == {("Z",): 1.0}
    assert sw.p_plus == 0.5 and sw.p_minus == 0.5


def test_nxy_closed_form_two_qubits_equals_two_party_form():
    sw = qswitch.closed_form_nxy_n(2)
    two_party = qswitch.closed_form_two_party(N_XY, N_XY)
    assert sw.plus_strings == two_party.plus_strings
    assert sw.minus_strings == two_party.minus_strings


def test_nxy_closed_form_three_qubits_matches_generic():
    sw = qswitch.closed_form_nxy_n(3)
    assert qswitch.choi_deviation(sw, nxy_product(3), nxy_product(3)) < 1e-9


def test_nxy_closed_form_string_parity_classification():
    for n in range(1, 7):
        sw = qswitch.closed_form_nxy_n(n)
        for s in sw.plus_strings:
            assert s.count("Z") % 2 == 0
        for s in sw.minus_strings:
            assert s.count("Z") % 2 == 1
        # every Z string is present with uniform conditional weight
        assert len(sw.plus_strings) + len(sw.minus_strings) == 2**n
        for w in list(sw.plus_strings.values()) + list(sw.minus_strings.values()):
            assert w == 2.0 ** (1 - n)


def test_nxy_closed_form_rejects_out_of_range():
    with pytest.raises(ValueError):
        qswitch.closed_form_nxy_n(0)
    with pytest.raises(ValueError):
        qswitch.closed_form_nxy_n(7)


def test_switched_channel_validates_control_pair():
    sw = qswitch.closed_form_nxy_n(1)
    with pytest.raises(ValidityError):
        qswitch.SwitchedChannel(
            p_plus=0.7,
            p_minus=0.7,
            omega_plus=sw.omega_plus,
            plus_strings=sw.plus_strings,
            minus_strings=sw.minus_strings,
        )


@pytest.mark.parametrize(
    "changes, error",
    [
        ({"p_plus": np.nan, "p_minus": np.nan}, ValidityError),
        ({"plus_strings": {("I",): np.nan}}, CompletenessError),
    ],
    ids=["probabilities", "string-weight"],
)
def test_switched_channel_rejects_nan(changes, error):
    with pytest.raises(error):
        dataclasses.replace(qswitch.closed_form_nxy_n(1), **changes)


@pytest.mark.parametrize(
    "plus, minus, error",
    [
        ({("Q",): 1.0}, {("Z",): 1.0}, ValidityError),
        ({"IZ": 1.0}, {("I", "Z"): 1.0}, ValidityError),
        ({(0,): 1.0}, {("Z",): 1.0}, ValidityError),
        ({("I", "Z"): 1.0}, {("Z",): 1.0}, DimensionMismatchError),
        ({("I",): 0.5, ("X", "X"): 0.5}, {("Z",): 1.0}, DimensionMismatchError),
        ({(): 1.0}, {(): 1.0}, DimensionMismatchError),
        ({("I",) * 7: 1.0}, {("Z",) * 7: 1.0}, DimensionMismatchError),
    ],
    ids=["label", "plain-string", "index", "two-and-one", "within-a-table", "empty", "seven"],
)
def test_switched_channel_rejects_malformed_string_tables(plus, minus, error):
    # each used to construct or to fail inside _string_arrays: label Q was
    # read as I, and mixed lengths failed on apply in numpy's broadcasting
    sw = qswitch.closed_form_nxy_n(1)
    with pytest.raises(error):
        dataclasses.replace(sw, plus_strings=plus, minus_strings=minus)


def test_closed_form_product_rejects_a_control_that_is_not_a_qubit():
    # a two-qubit control used to construct and then fail inside numpy on apply
    omega = qcore.random_density((2, 2), np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError, match="the order control must be a qubit"):
        qswitch.closed_form_product((N_XY,), (N_XY,), omega)


def test_closed_form_product_rejects_bad_inputs():
    sw = qswitch.closed_form_nxy_n(1)
    with pytest.raises(CompletenessError):
        dataclasses.replace(sw, plus_strings={("I",): 0.9})
    with pytest.raises(ValueError):
        qswitch.closed_form_product((N_XY, N_XY), (N_XY,))
    with pytest.raises(ValueError):
        qswitch.closed_form_product((), ())


def test_validate_closed_forms_report():
    report = qswitch.validate_closed_forms(seed=1, trials=10)
    assert report.passed
    assert report.max_deviation < 1e-9
    kinds = {rec.kind for rec in report.records}
    assert kinds == {"identity", "nxy-choi", "nxy-input", "two-party"}
    identity_devs = [rec.deviation for rec in report.records if rec.kind == "identity"]
    assert max(identity_devs) < 1e-12
    assert len([rec for rec in report.records if rec.kind == "two-party"]) == 10


def test_validate_closed_forms_rejects_large_n():
    with pytest.raises(ValueError):
        qswitch.validate_closed_forms(seed=1, trials=1, ns=(4,))


def test_validate_closed_forms_rejects_empty_ns(monkeypatch):
    # before any work: no fixture is built and no generator is drawn
    monkeypatch.setattr(qswitch, "_FIXTURES", {})
    with mock.patch.object(np.random, "default_rng") as default_rng:
        with pytest.raises(ValueError, match="ns"):
            qswitch.validate_closed_forms(seed=1, trials=1, ns=())
    assert default_rng.call_count == 0
    assert qswitch._FIXTURES == {}


@pytest.mark.parametrize(
    "seed, trials, ns, error",
    [
        (0, 2000, (3, 4), ValueError),
        (0, 2000, (1, 0), ValueError),
        (0, 2000, (2, 2.0), TypeError),
        (0, -3, (1, 2, 3), ValueError),
        (0, 2.5, (1,), TypeError),
        (-1, 2000, (1,), ValueError),
        (1.0, 2000, (1,), TypeError),
    ],
    ids=["4", "0", "float", "negative-trials", "float-trials", "negative-seed", "float-seed"],
)
def test_validate_closed_forms_checks_every_n_before_any_work(seed, trials, ns, error):
    # a bad n anywhere in ns, a negative trial count or a negative seed is
    # caught before any fixture is built or draw taken (a negative seed
    # used to fail inside numpy, with numpy's own message)
    with mock.patch.object(qswitch, "_FIXTURES", {}), mock.patch.object(
        qswitch, "_product_kernel", wraps=qswitch._product_kernel
    ) as product_kernel, mock.patch.object(np.random, "default_rng") as default_rng:
        with pytest.raises(error, match="seed must be non-negative" if seed == -1 else None):
            qswitch.validate_closed_forms(seed=seed, trials=trials, ns=ns)
        assert qswitch._FIXTURES == {}
    assert product_kernel.call_count == 0
    assert default_rng.call_count == 0


def literal_validation(seed, trials, ns):
    """(kind, n, detail, deviation) of every comparison, one trial at a time
    through the public entry points, on one generator in the validation's
    draw order."""
    rng = np.random.default_rng(seed)
    records = []
    for n in ns:
        ident = qcore.identity((2,) * n).entries[None]
        identities = (IDENTITY,) * n
        sw = qswitch.closed_form_product(identities, identities)
        records.append(("identity", n, "", qswitch.choi_deviation(sw, ident, ident)))
        nxy = nxy_product(n)
        sw = qswitch.closed_form_nxy_n(n)
        records.append(("nxy-choi", n, "", qswitch.choi_deviation(sw, nxy, nxy)))
        for t in range(trials):
            rho = qcore.random_density((2,) * n, rng)
            out = qswitch.switch_generic(nxy, nxy, rho, sw.omega_plus)
            dev = np.abs(sw.apply(rho).matrix - out.matrix).max()
            records.append(("nxy-input", n, f"trial {t}", dev))
        if n == 2:
            for t in range(trials):
                e1 = channels.random_pauli_channel(rng)
                e2 = channels.random_pauli_channel(rng)
                omega = qcore.random_ket((2,), rng).density()
                pair = product_pauli_kraus([e1, e2])
                sw2 = qswitch.closed_form_two_party(e1, e2, omega)
                dev = qswitch.choi_deviation(sw2, pair, pair)
                records.append(("two-party", 2, f"trial {t}", dev))
    return records


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
    st.integers(1, 3),
)
def test_stacked_validation_matches_literal_per_trial_loop(seed, trials, ns, block):
    # a small block size puts trials on both sides of block boundaries
    with mock.patch.object(qswitch, "_BLOCK", block):
        report = qswitch.validate_closed_forms(seed, trials, ns)
    literal = literal_validation(seed, trials, ns)
    assert [(r.kind, r.n, r.detail) for r in report.records] == [r[:3] for r in literal]
    for rec, (*_, dev) in zip(report.records, literal):
        assert abs(rec.deviation - dev) <= 1e-15
    assert report.max_deviation == max(r.deviation for r in report.records)
    assert (report.seed, report.trials, report.passed) == (seed, trials, True)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.booleans(),
    st.booleans(),
)
def test_stacked_switched_apply_matches_apply_row_by_row(n, seed, count, single, pure):
    rng = np.random.default_rng(seed)
    first = drawn_factors(rng, n, single)
    second = drawn_factors(rng, n, single)
    sw = qswitch.closed_form_product(first, second, random_control(rng, pure))
    rhos = qcore.random_density_stack((2,) * n, rng, count)
    out = sw.apply_stack(rhos)
    assert out.shape == (count, 2 ** (n + 1), 2 ** (n + 1))
    for rho, row in zip(rhos, out):
        single_out = sw.apply(qcore.DensityMatrix.from_matrix(rho, (2,) * n))
        assert single_out.matrix.tobytes() == row.tobytes()


def test_stacked_switched_apply_rejects_wrong_shapes():
    sw = qswitch.closed_form_nxy_n(2)
    with pytest.raises(DimensionMismatchError):
        sw.apply_stack(np.zeros((1, 2, 2), dtype=complex))
    with pytest.raises(DimensionMismatchError):
        sw.apply_stack(np.zeros((4, 4), dtype=complex))
    with pytest.raises(DimensionMismatchError):
        sw.apply(qcore.random_density((2,), np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# stacked construction against literal per-operator references
# ---------------------------------------------------------------------------


def literal_switch_kraus(a, b):
    p0, p1 = qcore.PROJ0.entries, qcore.PROJ1.entries
    return [
        np.kron(aj @ bk, p0) + np.kron(bk @ aj, p1)
        for aj in a
        for bk in b
    ]


def literal_switch(a, b, rho, omega):
    joint = np.kron(rho, omega)
    return sum(conj(k, joint) for k in literal_switch_kraus(a, b))


def literal_switch_choi(a, b, omega):
    """Choi matrix of the message -> message (x) control map, with omega
    absorbed one Kraus operator and one eigenvector at a time."""
    side = a[0].shape[0]
    vals, vecs = np.linalg.eigh(omega)
    lifted = [
        k @ np.kron(np.eye(side), np.sqrt(lam) * vec.reshape(2, 1))
        for k in literal_switch_kraus(a, b)
        for lam, vec in zip(vals, vecs.T)
        if lam >= qcore.PROB_FLOOR
    ]
    return channels.choi(np.stack(lifted)).matrix


def kernel_choi(kernel):
    """The unit-trace Choi matrix of the map message -> message (x) control
    whose ``_input_kernel`` is ``kernel``: its entries ((i, j), (a, b)) are
    the Choi entries ((a, i), (b, j)) times the message dimension."""
    side = math.isqrt(kernel.shape[0])
    rows = 2 * side
    choi = kernel.reshape(side, side, rows, rows).transpose(2, 0, 3, 1)
    return choi.reshape(rows * side, rows * side) / side


def literal_output_kraus(sw):
    """Per-string Kraus operators sqrt(p w lam) sigma_s (x) |v> of a closed form."""
    out = []
    for prob, table, omega in (
        (sw.p_plus, sw.plus_strings, sw.omega_plus),
        (sw.p_minus, sw.minus_strings, sw.omega_minus),
    ):
        if prob <= 0.0:
            continue
        vals, vecs = np.linalg.eigh(omega.matrix)
        for lam, vec in zip(vals, vecs.T):
            if lam < qcore.PROB_FLOOR:
                continue
            for s, w in sorted(table.items()):
                k = np.sqrt(prob * w * lam) * np.kron(
                    channels.pauli_string(s).entries, vec.reshape(2, 1)
                )
                out.append(k)
    return np.stack(out)


def closed_kernels(switched):
    """``qswitch._closed_kernels`` of closed forms given as objects."""
    weights = np.stack([qswitch._kernel_weights(sw) for sw in switched])
    controls = qswitch._branch_controls(np.stack([sw.omega_plus.matrix for sw in switched]))
    return qswitch._closed_kernels(weights, controls)


def random_control(rng, pure):
    return qcore.random_ket((2,), rng).density() if pure else qcore.random_density((2,), rng)


def drawn_factors(rng, n, single=False):
    """n single-qubit Pauli channels, each on a random nonempty subset of
    I, X, Y, Z (one label each if ``single``)."""
    factors = []
    for _ in range(n):
        support = rng.permutation(4)[: 1 if single else rng.integers(1, 5)]
        weights = np.zeros(4)
        weights[support] = rng.dirichlet(np.ones(len(support)))
        factors.append(channels.PauliChannel(*weights))
    return factors


def drawn_channel(rng, n, mixed):
    """Product of n drawn Pauli channels, optionally recombined through a
    random isometry into a non-Pauli Kraus set of the same channel."""
    ops = product_pauli_kraus(drawn_factors(rng, n))
    if not mixed:
        return ops
    rows = len(ops) + int(rng.integers(0, 3))
    return qcore.recombine_kraus(ops, qcore.random_unitary(rows, rng)[:, : len(ops)])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_stacked_switch_matches_literal_kraus_sum(n, seed, mixed_a, mixed_b, pure):
    rng = np.random.default_rng(seed)
    a = drawn_channel(rng, n, mixed_a)
    b = drawn_channel(rng, n, mixed_b)
    rho = qcore.random_density((2,) * n, rng)
    omega = random_control(rng, pure)
    out = qswitch.switch_generic(a, b, rho, omega)
    assert out.dims == (2,) * n + (2,)
    np.testing.assert_allclose(
        out.matrix, literal_switch(a, b, rho.matrix, omega.matrix), rtol=0, atol=1e-12
    )
    stacked = qswitch.switch_kraus(a, b)
    assert stacked.shape == (len(a) * len(b),) + (2 ** (n + 1),) * 2
    np.testing.assert_allclose(stacked, literal_switch_kraus(a, b), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        channels.choi(qswitch.switched_kraus(a, b, omega)).matrix,
        literal_switch_choi(a, b, omega.matrix),
        rtol=0,
        atol=1e-12,
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_stacked_closed_form_choi_matches_literal_kraus(n, seed, pure):
    # n = 0 draws a two-party closed form, n = 1..3 the equal-X/Y one
    rng = np.random.default_rng(seed)
    omega = random_control(rng, pure)
    if n == 0:
        e1 = channels.random_pauli_channel(rng)
        e2 = channels.random_pauli_channel(rng)
        sw = qswitch.closed_form_two_party(e1, e2, omega)
        pair = product_pauli_kraus([e1, e2])
    else:
        sw = qswitch.closed_form_product((N_XY,) * n, (N_XY,) * n, omega)
        pair = nxy_product(n)
    reference = channels.choi(literal_output_kraus(sw)).matrix
    np.testing.assert_allclose(
        kernel_choi(closed_kernels([sw])[0]), reference, rtol=0, atol=1e-12
    )
    generic = literal_switch_choi(pair, pair, omega.matrix)
    assert abs(
        qswitch.choi_deviation(sw, pair, pair) - np.abs(generic - reference).max()
    ) < 1e-12
    # against the switch of other channels the deviation is of order one,
    # and it is still the literal unit-trace Choi difference
    other = product_pauli_kraus(drawn_factors(rng, n or 2, single=True))
    expected = np.abs(literal_switch_choi(other, other, omega.matrix) - reference).max()
    assert expected > 1e-6
    assert abs(qswitch.choi_deviation(sw, other, other) - expected) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@example(2, 8, True, True)  # (Z, X) against (X, Y): two anticommuting qubits, p_minus = 0
def test_closed_form_product_matches_generic_switch(n, seed, single, pure):
    # single-label supports often give p_minus = 0
    rng = np.random.default_rng(seed)
    first = drawn_factors(rng, n, single)
    second = drawn_factors(rng, n, single)
    assume(first != second)
    omega = random_control(rng, pure)
    sw = qswitch.closed_form_product(first, second, omega)
    a, b = product_pauli_kraus(first), product_pauli_kraus(second)
    assert qswitch.choi_deviation(sw, a, b) < 1e-12
    np.testing.assert_allclose(
        channels.choi(literal_output_kraus(sw)).matrix,
        literal_switch_choi(a, b, omega.matrix),
        rtol=0,
        atol=1e-12,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_masked_switched_apply_matches_literal_string_sum(n, seed, single, pure, equal):
    # drawn supports put X and Y on qubits, so strings carry nontrivial flip
    # patterns and phases; ``equal`` switches a product with itself
    rng = np.random.default_rng(seed)
    first = drawn_factors(rng, n, single)
    second = first if equal else drawn_factors(rng, n, single)
    omega = random_control(rng, pure)
    sw = qswitch.closed_form_product(first, second, omega)
    rho = qcore.random_density((2,) * n, rng)
    expected = np.zeros((2 ** (n + 1),) * 2, dtype=complex)
    for prob, table, control in (
        (sw.p_plus, sw.plus_strings, sw.omega_plus),
        (sw.p_minus, sw.minus_strings, sw.omega_minus),
    ):
        for s, w in table.items():
            sigma = channels.pauli_string(s).entries
            expected += prob * w * np.kron(conj(sigma, rho.matrix), control.matrix)
    out = sw.apply(rho)
    assert out.dims == (2,) * n + (2,)
    np.testing.assert_allclose(out.matrix, expected, rtol=0, atol=1e-12)


def literal_flip_masks(table):
    """Flip pattern -> summed sign mask of a string table, built with one
    Kronecker product per qubit, in table order."""
    masks = {}
    for labels, w in table.items():
        flip, signs = 0, np.ones(1)
        for label in labels:
            flip = 2 * flip + (label in "XY")
            signs = np.kron(signs, (1.0, -1.0) if label in "YZ" else (1.0, 1.0))
        masks[flip] = masks.get(flip, 0.0) + w * np.outer(signs, signs)
    return masks


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_flip_group_masks_match_kron_construction_bit_for_bit(n, seed, single, pure):
    rng = np.random.default_rng(seed)
    first = drawn_factors(rng, n, single)
    second = drawn_factors(rng, n, single)
    sw = qswitch.closed_form_product(first, second, random_control(rng, pure))
    assert_flip_groups_equal_bit_for_bit(sw)
    tables = [
        table
        for prob, table in ((sw.p_plus, sw.plus_strings), (sw.p_minus, sw.minus_strings))
        if prob > 0.0
    ]
    assert len(sw._flip_groups) == len(tables)
    index = np.arange(2**n)
    for (_, groups, _), table in zip(sw._flip_groups, tables):
        expected = literal_flip_masks(table)
        assert len(groups) == len(expected)
        for (inverse, mask), (flip, literal) in zip(groups, expected.items()):
            assert np.array_equal(inverse, index ^ flip)
            assert mask.dtype == literal.dtype and mask.tobytes() == literal.tobytes()


# ---------------------------------------------------------------------------
# switch kernels against broadcast and literal references
# ---------------------------------------------------------------------------


def broadcast_switch_of(stack_a, stack_b):
    """``_switch_of`` as one broadcast product of 2-D matrices per pair."""
    side = stack_a.shape[-1]
    stack = np.zeros((len(stack_a) * len(stack_b), 2 * side, 2 * side), dtype=complex)
    stack[:, 0::2, 0::2] = (stack_a[:, None] @ stack_b[None, :]).reshape(-1, side, side)
    stack[:, 1::2, 1::2] = (stack_b[None, :] @ stack_a[:, None]).reshape(-1, side, side)
    return stack


def broadcast_lift_control(stack, omega):
    """``_lift_control`` as one (d, 2) @ (2, r) product per operator row."""
    vals, vecs = np.linalg.eigh(omega.matrix)
    keep = vals >= qcore.PROB_FLOOR
    amps = vecs[:, keep] * np.sqrt(vals[keep])
    m, rows, cols = stack.shape
    lifted = stack.reshape(m, rows, cols // 2, 2) @ amps
    return lifted.transpose(0, 3, 1, 2).reshape(-1, rows, cols // 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_gemm_switch_kernels_equal_broadcast_forms_bit_for_bit(n, seed, mixed_a, mixed_b, pure):
    rng = np.random.default_rng(seed)
    a = drawn_channel(rng, n, mixed_a)
    b = drawn_channel(rng, n, mixed_b)
    omega = random_control(rng, pure)
    stack = qswitch._switch_of(a, b)
    reference = broadcast_switch_of(a, b)
    if mixed_a and mixed_b:
        # entries of A_j B_k are sums of several products, which the two forms
        # may round differently
        np.testing.assert_allclose(stack, reference, rtol=0, atol=1e-15)
    else:
        # a Pauli product has one nonzero entry per row and column, so every
        # entry is a single product whatever the summation order; adding 0.0
        # turns -0.0 into 0.0, which a broadcast 2 x 2 product can give where
        # the GEMM gives +0.0
        assert (stack + 0.0).tobytes() == (reference + 0.0).tobytes()
    lifted = qswitch._lift_control(reference, omega)
    assert lifted.tobytes() == broadcast_lift_control(reference, omega).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_lifted_kernel_outputs_match_literal_kraus_sum(n, seed, count, mixed_a, mixed_b, pure):
    rng = np.random.default_rng(seed)
    a = drawn_channel(rng, n, mixed_a)
    b = drawn_channel(rng, n, mixed_b)
    omega = random_control(rng, pure)
    rhos = qcore.random_density_stack((2,) * n, rng, count)
    stack = qswitch.switch_kraus(a, b)
    kernel = qswitch._input_kernel(qswitch._lift_control(stack, omega))
    assert kernel.shape == (4**n, 4 ** (n + 1))
    out = qswitch._switch_outputs(kernel, rhos)
    for rho, row in zip(rhos, out):
        np.testing.assert_allclose(
            row, literal_switch(a, b, rho, omega.matrix), rtol=0, atol=1e-12
        )


def test_nxy_fixtures_are_built_once_per_n_and_read_only():
    with mock.patch.object(qswitch, "_FIXTURES", {}), mock.patch.object(
        qswitch, "_product_kernel", wraps=qswitch._product_kernel
    ) as product_kernel:
        first = qswitch.validate_closed_forms(seed=4, trials=3, ns=(1, 3))
        # per n: one pass for the identity and the equal-X/Y switch (the
        # kept kernel)
        assert product_kernel.call_count == 2
        again = qswitch.validate_closed_forms(seed=4, trials=3, ns=(3, 1))
        assert product_kernel.call_count == 2
        fixtures = dict(qswitch._FIXTURES)
        assert all(qswitch._nxy_fixture(n) is fixture for n, fixture in fixtures.items())
    assert sorted(fixtures) == [1, 3]
    for n, fixture in fixtures.items():
        assert [r.kind for r in fixture.records] == ["identity", "nxy-choi"]
        for report in (first, again):
            seed_free = [r for r in report.records if r.n == n and r.kind != "nxy-input"]
            assert all(r is f for r, f in zip(seed_free, fixture.records, strict=True))
        sw = fixture.switched
        arrays = [fixture.kernel, sw.omega_plus.matrix]
        arrays += [a for _, groups, _ in sw._flip_groups for group in groups for a in group]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0
        # the kernel is the switch of the equal-X/Y product with the |+> control
        nxy = nxy_product(n)
        rho = qcore.random_density((2,) * n, np.random.default_rng(n))
        np.testing.assert_allclose(
            qswitch._switch_outputs(fixture.kernel, rho.matrix[None])[0],
            literal_switch(nxy, nxy, rho.matrix, PLUS.matrix),
            rtol=0,
            atol=1e-12,
        )


def test_choi_deviation_rejects_channels_on_another_qubit_count():
    ops = pauli_kraus(N_XY)
    with mock.patch.object(qswitch, "_input_kernel", wraps=qswitch._input_kernel) as kernel:
        with pytest.raises(DimensionMismatchError, match=r"on 2 qubits, channels on dimension 2$"):
            qswitch.choi_deviation(qswitch.closed_form_nxy_n(2), ops, ops)
    assert kernel.call_count == 0


# ---------------------------------------------------------------------------
# product-route switch kernel
# ---------------------------------------------------------------------------


def pauli_factor_sets(factors):
    """(n, 4, 2, 2) per-qubit Kraus sets sqrt(w_l) sigma_l of Pauli channels;
    a zero weight gives a zero operator."""
    weights = np.array([ch.weights for ch in factors])
    return np.sqrt(weights)[..., None, None] * qswitch._PAULIS


def drawn_factor_sets(rng, n, extra):
    """Per-qubit Kraus sets of n drawn Pauli channels (random supports, so
    zero weights), each recombined through a random (4 + extra, 4) isometry
    into a set of non-Pauli operators."""
    sets = pauli_factor_sets(drawn_factors(rng, n))
    mixing = np.stack([qcore.random_unitary(4 + extra, rng)[:, :4] for _ in range(n)])
    return np.einsum("qlj,qjab->qlab", mixing, sets)


def dense_product(sets):
    """Kraus stack of the product of per-qubit sets, first qubit slowest."""
    stack = np.ones((1, 1, 1), dtype=complex)
    for ops in sets:
        stack = np.stack([np.kron(s, o) for s in stack for o in ops])
    return stack


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
def test_product_kernel_matches_dense_switch_kernel(n, seed, count, pure, mixed):
    # A != B, a different channel on each qubit, zero Pauli weights, and
    # (``mixed``) non-Pauli factor sets, with a second set one operator
    # larger at n <= 2
    rng = np.random.default_rng(seed)
    first, second, omegas = [], [], []
    for _ in range(count):
        if mixed:
            first.append(drawn_factor_sets(rng, n, 0))
            second.append(drawn_factor_sets(rng, n, int(n < 3)))
        else:
            first.append(pauli_factor_sets(drawn_factors(rng, n)))
            second.append(pauli_factor_sets(drawn_factors(rng, n)))
        omegas.append(random_control(rng, pure))
    controls = np.stack([omega.matrix for omega in omegas])
    kernels = qswitch._product_kernel(np.stack(first), np.stack(second), controls)
    assert kernels.shape == (count, 4**n, 4 ** (n + 1))
    for a, b, omega, kernel in zip(first, second, omegas, kernels):
        stack = qswitch._switch_of(dense_product(a), dense_product(b))
        dense = qswitch._input_kernel(qswitch._lift_control(stack, omega))
        assert np.abs(kernel - dense).max() <= 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_entrywise_products_equal_matmul(n, seed, mixed):
    # Pauli factors have one nonzero entry per row and column, so each entry
    # of a product is a single product of entries and the two forms agree
    # bit for bit (adding 0.0 equates the signs of zeros); non-Pauli factors
    # may round differently
    rng = np.random.default_rng(seed)
    first, second = (
        drawn_factor_sets(rng, n, 0) if mixed else pauli_factor_sets(drawn_factors(rng, n))
        for _ in range(2)
    )
    a, b = first[:, :, None], second[:, None]
    for left, right in ((a, b), (b, a)):
        entrywise, reference = qswitch._products(left, right), left @ right
        if mixed:
            np.testing.assert_allclose(entrywise, reference, rtol=0, atol=1e-15)
        else:
            assert (entrywise + 0.0).tobytes() == (reference + 0.0).tobytes()


def test_product_kernel_checks_factor_sets_complete():
    sets = pauli_factor_sets([N_XY, IDENTITY])[None]
    with pytest.raises(CompletenessError, match="second Kraus factor set"):
        qswitch._product_kernel(sets, 0.9 * sets, PLUS.matrix[None])


def four_qubit_product_route_deviation(seed, pure):
    """Choi deviation of ``closed_form_product`` from the product-route
    switch of two different drawn 4-qubit Pauli products."""
    rng = np.random.default_rng(seed)
    first = drawn_factors(rng, 4)
    second = drawn_factors(rng, 4)
    omega = random_control(rng, pure)
    sw = qswitch.closed_form_product(first, second, omega)
    kernel = qswitch._product_kernel(
        pauli_factor_sets(first)[None], pauli_factor_sets(second)[None], omega.matrix[None]
    )
    return np.abs(kernel[0] - closed_kernels([sw])[0]).max() / 2**4


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_closed_form_product_matches_product_route_at_four_qubits(seed, pure):
    assert four_qubit_product_route_deviation(seed, pure) <= 1e-14


def test_product_route_catches_a_broken_commutation_rule():
    # with every Pauli pair taken to commute, the closed forms lose their
    # C_minus branch; the product route does not use that rule. The closed
    # forms read the rule from the pair table, which drops each pair's
    # anticommutation bit here
    with mock.patch.object(qswitch, "_FIXTURES", {}), mock.patch.object(
        qswitch, "_PAIR_SLOTS", qswitch._PAIR_SLOTS & ~1
    ):
        assert four_qubit_product_route_deviation(3, pure=False) > 1e-3
        report = qswitch.validate_closed_forms(3, 5, ns=(2,))
    assert not report.passed
    assert min(r.deviation for r in report.records if r.kind == "two-party") > 1e-3


def test_warm_two_party_trials_build_no_dense_switch_stack():
    qswitch.validate_closed_forms(0, 1, ns=(2,))  # the n = 2 fixture
    with mock.patch.object(
        qswitch, "_switch_of", wraps=qswitch._switch_of
    ) as switch_of, mock.patch.object(
        qswitch, "_lift_control", wraps=qswitch._lift_control
    ) as lift_control:
        report = qswitch.validate_closed_forms(5, 20, ns=(2,))
    assert (switch_of.call_count, lift_control.call_count) == (0, 0)
    assert report.passed
    assert len([r for r in report.records if r.kind == "two-party"]) == 20


def test_cold_validation_never_takes_the_dense_route():
    # every generic kernel comes from the product route and every closed
    # kernel from the string tables, also when the fixtures are built
    names = ["_switch_of", "_lift_control", "_input_kernel", "choi_deviation"]
    with mock.patch.object(qswitch, "_FIXTURES", {}), contextlib.ExitStack() as stack:
        mocks = [stack.enter_context(mock.patch.object(qswitch, name)) for name in names]
        mocks.append(stack.enter_context(mock.patch.object(channels, "product_pauli_kraus")))
        report = qswitch.validate_closed_forms(5, 4, ns=(1, 2, 3))
        assert sorted(qswitch._FIXTURES) == [1, 2, 3]
    assert [m.call_count for m in mocks] == [0] * 5
    assert report.passed and len(report.records) == 3 * (2 + 4) + 4


# ---------------------------------------------------------------------------
# closed kernels scattered from the string tables
# ---------------------------------------------------------------------------


def drawn_closed_forms(rng, n, count, single, pure):
    """``count`` closed forms of drawn n-qubit products, each with its own
    drawn control, and the identity closed form (a zero-probability minus
    branch) among them."""
    pairs = [(drawn_factors(rng, n, single), drawn_factors(rng, n, single)) for _ in range(count)]
    pairs.insert(int(rng.integers(0, count + 1)), ((IDENTITY,) * n, (IDENTITY,) * n))
    return [
        qswitch.closed_form_product(first, second, random_control(rng, pure))
        for first, second in pairs
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
def test_closed_kernels_are_the_choi_matrices_of_literal_kraus_sets(n, seed, count, single, pure):
    rng = np.random.default_rng(seed)
    switched = drawn_closed_forms(rng, n, count, single, pure)
    kernels = closed_kernels(switched)
    assert kernels.shape == (count + 1, 4**n, 4 ** (n + 1))
    side = 2**n
    for sw, kernel in zip(switched, kernels):
        np.testing.assert_allclose(
            kernel_choi(kernel), channels.choi(literal_output_kraus(sw)).matrix, rtol=0, atol=1e-12
        )
        # trace preserving: tr(output) = tr(rho) for every message rho
        traces = np.einsum("ijaa->ij", kernel.reshape(side, side, 2 * side, 2 * side))
        np.testing.assert_allclose(traces, np.eye(side), rtol=0, atol=1e-12)


def per_string_flip_groups(sw):
    """``SwitchedChannel._flip_groups`` as one sign vector and one outer
    product per string, the strings taken in table order."""
    size = 2**sw.num_qubits
    index = np.arange(size)
    parity = np.zeros(size, dtype=np.int64)
    for bit in range(sw.num_qubits):
        parity ^= (index >> bit) & 1
    out = []
    for prob, table, omega in (
        (sw.p_plus, sw.plus_strings, sw.omega_plus),
        (sw.p_minus, sw.minus_strings, sw.omega_minus),
    ):
        if prob <= 0.0:
            continue
        masks = {}
        for labels, w in table.items():
            flip = zmask = 0
            for label in labels:
                flip = 2 * flip + (label in "XY")
                zmask = 2 * zmask + (label in "YZ")
            signs = 1.0 - 2.0 * parity[index & zmask]
            masks[flip] = masks.get(flip, 0.0) + w * np.outer(signs, signs)
        out.append((prob, tuple((index ^ flip, mask) for flip, mask in masks.items()), omega))
    return out


def assert_flip_groups_equal_bit_for_bit(sw):
    expected = per_string_flip_groups(sw)
    assert len(sw._flip_groups) == len(expected)
    for (prob, groups, omega), (prob_e, groups_e, omega_e) in zip(sw._flip_groups, expected):
        assert (prob, omega) == (prob_e, omega_e) and len(groups) == len(groups_e)
        for (inverse, mask), (inverse_e, mask_e) in zip(groups, groups_e):
            assert inverse.dtype == inverse_e.dtype and inverse.tobytes() == inverse_e.tobytes()
            assert mask.dtype == mask_e.dtype and mask.tobytes() == mask_e.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_nxy_flip_groups_match_the_per_string_loop_bit_for_bit(n):
    assert_flip_groups_equal_bit_for_bit(qswitch.closed_form_nxy_n(n))


# ---------------------------------------------------------------------------
# the array core against the dict convolution it replaced
# ---------------------------------------------------------------------------


def dict_closed_form(first, second):
    """The closed form of two Pauli-channel products by the per-string dict
    convolution, as ``exact_parts`` gives it: per qubit the pairs with both
    weights nonzero summed by (product label, anticommutes), combined by
    parity, each table's total summed one string at a time in insertion
    order, as ``sum`` does before Python 3.12."""
    n = len(first)
    labels = channels.PAULI_LABELS
    tables = ({(): 1.0}, {})
    for a, b in zip(first, second):
        local = {}
        for la, wa in enumerate(a.weights):
            for lb, wb in enumerate(b.weights):
                if wa == 0.0 or wb == 0.0:
                    continue
                _, product = channels.pauli_product(la, lb)
                key = (labels[product], channels.paulis_anticommute(la, lb))
                local[key] = local.get(key, 0.0) + wa * wb
        grown = ({}, {})
        for parity, table in enumerate(tables):
            for s, w in table.items():
                for (label, flip), wl in local.items():
                    out, key = grown[parity ^ flip], s + (label,)
                    out[key] = out.get(key, 0.0) + w * wl
        tables = grown
    sides = []
    for table in tables:
        total = 0
        for w in table.values():
            total += w
        if total <= qcore.PROB_FLOOR:
            sides.append((0.0, {("I",) * n: 1.0}))
        else:
            sides.append((total, {s: w / total for s, w in sorted(table.items()) if w > 0.0}))
    return [(p.hex(), [(key, w.hex()) for key, w in table.items()]) for p, table in sides]


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 computes it for floats: Neumaier-compensated."""
    values = list(values)
    if not values or not all(type(v) is float for v in values):
        return PLAIN_SUM(values, start)
    total, compensation = float(start), 0.0
    for v in values:
        step = total + v
        if abs(total) >= abs(v):
            compensation += (total - step) + v
        else:
            compensation += (v - step) + total
        total = step
    return total + compensation


PLAIN_SUM = sum


def exact_parts(sw):
    """The probabilities and tables of a closed form, every float as hex."""
    return [
        (prob.hex(), [(key, w.hex()) for key, w in table.items()])
        for prob, table in ((sw.p_plus, sw.plus_strings), (sw.p_minus, sw.minus_strings))
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@example(2, 8, True, False)  # (Z, X) against (X, Y): p_minus = 0
def test_closed_form_product_equals_the_dict_convolution_bit_for_bit(n, seed, single, equal):
    # A != B unless ``equal``, a different drawn channel on each qubit, zero
    # weights from random supports and non-dyadic Dirichlet weights
    rng = np.random.default_rng(seed)
    first = drawn_factors(rng, n, single)
    second = first if equal else drawn_factors(rng, n, single)
    expected = dict_closed_form(first, second)
    assert exact_parts(qswitch.closed_form_product(first, second)) == expected
    # the totals do not depend on how the interpreter's sum rounds
    assert compensated_sum([0.1] * 10) != PLAIN_SUM([0.1] * 10)
    with mock.patch("builtins.sum", compensated_sum):
        assert exact_parts(qswitch.closed_form_product(first, second)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_nxy_closed_form_equals_the_dict_convolution_bit_for_bit(n):
    expected = dict_closed_form((N_XY,) * n, (N_XY,) * n)
    assert exact_parts(qswitch.closed_form_nxy_n(n)) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 17))
def test_two_party_draws_match_the_per_trial_draws(seed, count):
    rng = np.random.default_rng(seed)
    weights, kets = qswitch._two_party_draws(count, rng)
    assert weights.shape == (count, 2, 4) and kets.shape == (count, 2)
    reference = np.random.default_rng(seed)
    for t in range(count):
        e1 = channels.random_pauli_channel(reference)
        e2 = channels.random_pauli_channel(reference)
        ket = qcore.random_ket((2,), reference)
        assert weights[t].tobytes() == np.array([e1.weights, e2.weights]).tobytes()
        assert kets[t].tobytes() == ket.amplitudes.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_two_party_block_checks_its_draws_as_arrays():
    # a broken draw is caught by the array checks of the PauliChannel,
    # Ket and state rules, before any kernel is built
    count = 3
    good = qswitch._two_party_draws(count, np.random.default_rng(0))
    negative = good[0].copy()
    negative[1, 0] = [1.5, -0.5, 0.0, 0.0]
    unnormed = good[1].copy()
    unnormed[2] *= 1.1
    for draws, message in (
        ((negative, good[1]), r"negative Pauli weight in \(1.5, -0.5, 0.0, 0.0\)"),
        ((good[0], unnormed), "ket norm"),
    ):
        with mock.patch.object(qswitch, "_two_party_draws", return_value=draws), mock.patch.object(
            qswitch, "_product_kernel", wraps=qswitch._product_kernel
        ) as product_kernel:
            with pytest.raises(ValidityError, match=message):
                list(qswitch._two_party_deviations(count, np.random.default_rng(0)))
        assert product_kernel.call_count == 0


def test_check_branches_names_the_first_failing_closed_form():
    probs = np.array([[0.5, 0.5], [0.5, 0.5], [1.5, -0.5]])
    weights = np.zeros((3, 2, 4))
    weights[:, :, 0] = 1.0
    weights[1, 1] = [0.5, 0.25, 0.0, 0.0]
    with pytest.raises(CompletenessError, match="C_minus weights are not a distribution"):
        qswitch._check_branches(probs, weights)
    with pytest.raises(ValidityError, match="negative branch probability"):
        qswitch._check_branches(probs[2:], weights[2:])
    probs[0] = [0.7, 0.7]
    with pytest.raises(ValidityError, match="branch probabilities sum to 1.4, not 1"):
        qswitch._check_branches(probs, weights)
    probs[0, 0] = np.nan
    with pytest.raises(ValidityError, match="negative branch probability"):
        qswitch._check_branches(probs, weights)

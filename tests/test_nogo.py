import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rrqc import nogo, qcore
from rrqc.nogo import (
    PermutationPair,
    check_term_proportionality,
    fixed_bit_scan,
    routed_channel_state_scan,
)
from rrqc.protocols import MessageState

MSG = MessageState(0.6, 0.8j)


# ---------------------------------------------------------------------------
# fixed-bit scan
# ---------------------------------------------------------------------------


def _rows(report):
    """The counterexample cells of a report as (tau, bits) tuples, in order."""
    return list(zip(map(tuple, report.taus.tolist()), map(tuple, report.bits.tolist())))


def test_swap_on_alternating_bits_is_a_counterexample():
    report = fixed_bit_scan(2)
    assert _rows(report) == [((2, 1), (0, 1)), ((2, 1), (1, 0))]
    assert report.counterexample_count == 2


def test_three_carriers_always_have_a_fixed_bit():
    report = fixed_bit_scan(3)
    assert report.cells == 48
    assert report.counterexample_count == 0
    assert report.witnessed == 48


@pytest.mark.parametrize("n,expect_zero", [(2, False), (3, True), (4, False), (5, True)])
def test_parity_of_counterexample_counts(n, expect_zero):
    report = fixed_bit_scan(n)
    assert (report.counterexample_count == 0) == expect_zero


def test_scan_rejects_out_of_range():
    with pytest.raises(ValueError):
        fixed_bit_scan(1)
    with pytest.raises(ValueError):
        fixed_bit_scan(8)


def test_scan_takes_integer_counts_only():
    # 3.0 used to pass the range check and fail inside numpy's right_shift
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        fixed_bit_scan(3.0)
    wide, plain = fixed_bit_scan(np.int64(4)), fixed_bit_scan(4)
    assert (wide.n, wide.cells, wide.witnessed) == (plain.n, plain.cells, plain.witnessed)
    assert _rows(wide) == _rows(plain)


def _cycles(tau):
    seen = set()
    for start in range(1, len(tau) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        node = tau[start - 1]
        while node != start:
            cycle.append(node)
            seen.add(node)
            node = tau[node - 1]
        yield cycle


def test_counterexamples_decompose_into_alternating_even_cycles():
    for n in (2, 4):
        for tau, bits in _rows(fixed_bit_scan(n)):
            for cycle in _cycles(tau):
                assert len(cycle) % 2 == 0
                values = [bits[j - 1] for j in cycle]
                assert all(a != b for a, b in zip(values, values[1:] + values[:1]))


def brute_force_scan(n):
    """Per-cell reference: the counterexample cells as (tau, bits) tuples in
    (tau, bits) order, and the witnessed count."""
    counterexamples, witnessed = [], 0
    for perm in itertools.permutations(range(1, n + 1)):
        for bits in itertools.product((0, 1), repeat=n):
            if any(bits[j] == bits[perm[j] - 1] for j in range(n)):
                witnessed += 1
            else:
                counterexamples.append((perm, bits))
    return counterexamples, witnessed


@pytest.mark.parametrize("n", range(2, 7))
def test_bitmask_scan_matches_per_cell_brute_force(n):
    counterexamples, witnessed = brute_force_scan(n)
    report = fixed_bit_scan(n)
    assert report.cells == math.factorial(n) * 2**n
    assert report.witnessed == witnessed
    assert report.counterexample_count == len(counterexamples)
    assert _rows(report) == counterexamples


def test_scan_at_seven_witnesses_every_cell():
    report = fixed_bit_scan(7)
    assert report.cells == math.factorial(7) * 2**7
    assert report.witnessed == report.cells
    assert report.counterexample_count == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_scan_records_equal_checked_records(n):
    # the counterexample arrays: read-only (k, n) integer arrays whose rows
    # come out as Python ints and pass the checked PermutationPair
    report = fixed_bit_scan(n)
    k = report.counterexample_count
    for table in (report.taus, report.bits):
        assert isinstance(table, np.ndarray)
        assert table.shape == (k, n)
        assert np.issubdtype(table.dtype, np.integer)
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
    for tau, bits in zip(report.taus.tolist(), report.bits.tolist()):
        assert all(type(value) is int for value in tau + bits)
        assert PermutationPair(tuple(tau), n).tau == tuple(tau)
        assert set(bits) <= {0, 1}


def _patched_tables(monkeypatch, n, packed=None, perms=None):
    """Replace the scan tables at n."""
    bits, real_packed, real_perms = nogo._scan_tables(n)
    patched = (
        bits,
        real_packed if packed is None else packed,
        real_perms if perms is None else perms,
    )
    monkeypatch.setattr(nogo, "_scan_tables", lambda size: patched)


@pytest.mark.parametrize(
    "n, row",
    [
        # tau = (2, 1, 1, 3) fixes no slot on 0110, a reported counterexample
        (4, [1, 0, 0, 2]),
        # tau = (1, 1, 1, 1) fixes slot 1 and reports nothing itself, but
        # the other rows report counterexamples, and every row is checked
        (4, [0, 0, 0, 0]),
    ],
)
def test_scan_rejects_a_table_row_that_is_not_a_permutation(monkeypatch, n, row):
    perms = nogo._scan_tables(n)[2].copy()
    perms[-1] = row
    _patched_tables(monkeypatch, n, perms=perms)
    with pytest.raises(ValueError, match="permutation"):
        fixed_bit_scan(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_scan_rejects_a_counterexample_with_a_fixed_slot(monkeypatch, n):
    # an all-zero agreement table claims that no slot ever agrees with any
    # slot, so every cell is reported, the identity's cells among them
    packed = nogo._scan_tables(n)[1]
    _patched_tables(monkeypatch, n, packed=np.zeros_like(packed))
    with pytest.raises(ValueError, match="b_j = b_tau"):
        fixed_bit_scan(n)


def test_permutation_pair_takes_integer_images_only():
    with pytest.raises(ValueError):
        PermutationPair((1, 1), 2)
    # floats used to be truncated: (1.7, 2.2) was read as (1, 2)
    with pytest.raises(TypeError):
        PermutationPair((1.7, 2.2), 2)
    with pytest.raises(TypeError):
        PermutationPair((1.0, 2.0), 2)
    pair = PermutationPair((np.int8(2), np.int64(1)), 2)
    assert pair.tau == (2, 1)
    assert all(type(t) is int for t in pair.tau)


# ---------------------------------------------------------------------------
# routed-state simulation
# ---------------------------------------------------------------------------


def test_three_cycle_branch_has_message_independent_receiver():
    pair = PermutationPair((2, 3, 1), 3)
    report = routed_channel_state_scan(3, pair, MSG)
    assert report.all_agree
    branch = next(b for b in report.branches if b.bits == (0, 1, 0))
    # an odd cycle cannot alternate bits, so some slot must be fixed
    assert branch.fixed_indices
    assert set(branch.fixed_indices) <= set(branch.pinned_indices)


def test_identity_routing_pins_every_receiver():
    pair = PermutationPair((1, 2, 3), 3)
    report = routed_channel_state_scan(3, pair, MSG)
    for branch in report.branches:
        assert branch.fixed_indices == (1, 2, 3)
        assert branch.pinned_indices == (1, 2, 3)


def test_witness_reduced_state_is_identical_across_messages():
    pair = PermutationPair((2, 3, 1), 3)
    bits = (0, 1, 0)
    rng = np.random.default_rng(17)
    states = []
    for _ in range(10):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        msg = MessageState(complex(vec[0]), complex(vec[1]))
        state = nogo.routed_state(pair, bits, msg).density()
        j = next(
            j for j in range(1, 4) if bits[j - 1] == bits[pair.image(j) - 1]
        )
        states.append(qcore.partial_trace(state, {j - 1}).matrix)
    for state in states[1:]:
        assert np.abs(state - states[0]).max() < 1e-12


def test_simulation_agrees_with_combinatorial_witness_for_all_permutations():
    for tau in itertools.permutations(range(1, 4)):
        report = routed_channel_state_scan(3, PermutationPair(tau, 3), MSG)
        assert report.all_agree
        for branch in report.branches:
            # generic message: pinned exactly at the fixed-bit slots
            assert set(branch.pinned_indices) == set(branch.fixed_indices)


def test_routed_scan_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        routed_channel_state_scan(3, PermutationPair((2, 1), 2), MSG)


# ---------------------------------------------------------------------------
# term proportionality
# ---------------------------------------------------------------------------


I2 = qcore.I2.entries[None]
X = qcore.X.entries[None]


def test_identity_composition_passes():
    report = check_term_proportionality(I2, I2, I2)
    assert report.passed
    assert report.terms[0].scale == 1.0
    assert report.terms[0].residual == 0.0


def test_dephasing_middle_channel_fails():
    s = 1 / np.sqrt(2)
    report = check_term_proportionality(
        I2, s * np.stack([qcore.I2.entries, qcore.Z.entries]), I2
    )
    assert not report.passed
    z_term = report.terms[1]
    assert abs(z_term.scale) < 1e-12
    # the residual of the Z/sqrt(2) term is its own max entry
    assert abs(z_term.residual - s) < 1e-12
    assert abs(report.weight_sum - 0.5) < 1e-12


def test_bare_bit_flip_fails_but_cancelling_pair_passes():
    failing = check_term_proportionality(I2, X, I2)
    assert not failing.passed
    assert abs(failing.terms[0].scale) < 1e-12
    assert abs(failing.terms[0].residual - 1.0) < 1e-12
    passing = check_term_proportionality(X, X, I2)
    assert passing.passed
    assert abs(passing.terms[0].scale - 1.0) < 1e-12


def test_weight_sum_adds_the_term_weights_left_to_right(compensated_sum):
    # the builtin float sum is compensated from Python 3.12 on; the weight
    # sum is added left to right, and no float goes through the builtin
    mid = np.sqrt(0.1) * np.stack([qcore.I2.entries] * 10)
    recorder = compensated_sum()
    with recorder.patch():
        report = check_term_proportionality(I2, mid, I2)
    assert recorder.floats == []
    expected = 0.0
    for term in report.terms:
        expected += abs(term.scale) ** 2
    assert report.weight_sum == expected


def test_random_unitary_with_inverse_decoder_passes():
    for seed in range(5):
        u = qcore.random_unitary(4, np.random.default_rng(seed))
        report = check_term_proportionality(u.conj().T[None], u[None], np.eye(4)[None])
        assert report.passed


def test_residuals_are_nonnegative_and_report_shape():
    s = 1 / np.sqrt(2)
    report = check_term_proportionality(
        s * np.stack([qcore.I2.entries, qcore.X.entries]), I2, I2
    )
    assert len(report.terms) == 2
    assert all(t.residual >= 0 for t in report.terms)
    assert report.max_residual >= 0


def test_proportionality_rejects_bad_dimensions():
    tall = np.ones((1, 4, 2)) / 2
    with pytest.raises(qcore.DimensionMismatchError):
        check_term_proportionality(tall, I2, I2)
    with pytest.raises(qcore.DimensionMismatchError):
        check_term_proportionality(np.zeros((0, 2, 2)), I2, I2)
    # an operator list, a 2-D array and a mid set that does not chain
    with pytest.raises(qcore.DimensionMismatchError):
        check_term_proportionality([qcore.I2], I2, I2)
    with pytest.raises(qcore.DimensionMismatchError):
        check_term_proportionality(I2, np.eye(2), I2)
    with pytest.raises(qcore.DimensionMismatchError):
        check_term_proportionality(I2, np.ones((1, 2, 3)), I2)


def literal_proportionality(left, mid, right):
    """Every term L_i M_j R_k, its scale and residual, and the summed squared
    scales, one term at a time in (i, j, k) order."""
    d = right.shape[2]
    terms, weight_sum = [], 0.0
    for i, l in enumerate(left):
        for j, m in enumerate(mid):
            for k, r in enumerate(right):
                composite = l @ m @ r
                scale = complex(np.trace(composite) / d)
                residual = float(np.abs(composite - scale * np.eye(d)).max())
                weight_sum += abs(scale) ** 2
                terms.append(((i, j, k), scale, residual))
    return terms, weight_sum


def complex_stacks(shape):
    parts = arrays(np.float64, (2,) + shape, elements=st.floats(-1, 1))
    return parts.map(lambda p: p[0] + 1j * p[1])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([(2, 2, 2), (2, 3, 2), (2, 4, 4), (3, 3, 3)]),
    st.data(),
)
def test_term_proportionality_matches_literal_triple_loop(nl, nm, nr, sides, data):
    # sides (d, e, f): left (nl, d, e), mid (nm, e, f), right (nr, f, d); the
    # (2, 4, 4) draw gives a rectangular (4, 2) right set
    d, e, f = sides
    left = data.draw(complex_stacks((nl, d, e)))
    mid = data.draw(complex_stacks((nm, e, f)))
    right = data.draw(complex_stacks((nr, f, d)))
    report = check_term_proportionality(left, mid, right)
    terms, weight_sum = literal_proportionality(left, mid, right)
    assert [t.indices for t in report.terms] == [ijk for ijk, _, _ in terms]
    for verdict, (_, scale, residual) in zip(report.terms, terms):
        assert isinstance(verdict.scale, complex)
        assert abs(verdict.scale - scale) <= 1e-12
        assert abs(verdict.residual - residual) <= 1e-12
    assert abs(report.weight_sum - weight_sum) <= 1e-12
    with pytest.raises(qcore.DimensionMismatchError):
        check_term_proportionality(left, mid[:, :, :-1], right)

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rrqc import nogo, qcore
from rrqc.nogo import (
    FixedBitWitness,
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


def test_swap_on_alternating_bits_is_a_counterexample():
    report = fixed_bit_scan(2)
    cells = {(ce.pair.tau, ce.bits) for ce in report.counterexamples}
    assert ((2, 1), (0, 1)) in cells
    assert ((2, 1), (1, 0)) in cells
    assert report.counterexample_count == 2


def test_three_carriers_always_have_a_fixed_bit():
    report = fixed_bit_scan(3)
    assert report.cells == 48
    assert report.counterexample_count == 0
    assert report.witnessed == 48


def test_identity_permutation_fixes_the_first_slot():
    report = fixed_bit_scan(3, keep_witnesses=True)
    ident = tuple(range(1, 4))
    for witness in report.witnesses:
        if witness.pair.tau == ident:
            assert witness.index == 1


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
    assert fixed_bit_scan(np.int64(4)) == fixed_bit_scan(4)


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
        for ce in fixed_bit_scan(n).counterexamples:
            for cycle in _cycles(ce.pair.tau):
                assert len(cycle) % 2 == 0
                values = [ce.bits[j - 1] for j in cycle]
                assert all(a != b for a, b in zip(values, values[1:] + values[:1]))


def brute_force_scan(n):
    """Per-cell reference: counterexample cells in (tau, bits) order, the
    witnessed count and each witnessed cell's first fixed slot."""
    counterexamples, witnesses = [], []
    for perm in itertools.permutations(range(1, n + 1)):
        for bits in itertools.product((0, 1), repeat=n):
            if any(bits[j] == bits[perm[j] - 1] for j in range(n)):
                index = next(j + 1 for j in range(n) if bits[j] == bits[perm[j] - 1])
                witnesses.append((perm, bits, index))
            else:
                counterexamples.append((perm, bits, None))
    return counterexamples, witnesses


@pytest.mark.parametrize("n", range(2, 7))
def test_bitmask_scan_matches_per_cell_brute_force(n):
    counterexamples, witnesses = brute_force_scan(n)
    report = fixed_bit_scan(n)
    assert report.cells == math.factorial(n) * 2**n
    assert report.witnessed == len(witnesses)
    assert report.witnesses is None
    assert [(c.pair.tau, c.bits, c.index) for c in report.counterexamples] == counterexamples
    if n <= 5:
        kept = fixed_bit_scan(n, keep_witnesses=True)
        assert [(w.pair.tau, w.bits, w.index) for w in kept.witnesses] == witnesses
        assert kept.counterexamples == report.counterexamples


def test_scan_at_seven_witnesses_every_cell():
    report = fixed_bit_scan(7)
    assert report.cells == math.factorial(7) * 2**7
    assert report.witnessed == report.cells
    assert report.counterexample_count == 0


def _exact(value):
    """``value`` with every tuple and item paired with its exact type name,
    so that a tuple subclass or a numpy integer does not compare equal."""
    if isinstance(value, tuple):
        return (type(value).__name__, tuple(_exact(item) for item in value))
    return (type(value).__name__, value)


def _checked(record):
    """The record rebuilt through the checked constructors from Python ints."""
    pair = PermutationPair(tuple(map(int, record.pair.tau)), int(record.pair.n))
    index = None if record.index is None else int(record.index)
    return FixedBitWitness(pair, tuple(map(int, record.bits)), index)


@pytest.mark.parametrize("n", range(2, 7))
def test_scan_records_equal_checked_records(n):
    report = fixed_bit_scan(n)
    records = report.counterexamples
    if n <= 4:
        kept = fixed_bit_scan(n, keep_witnesses=True)
        assert kept.counterexamples == records
        records += kept.witnesses
    assert len(records) == (report.cells if n <= 4 else report.counterexample_count)
    for record in records:
        checked = _checked(record)
        assert record == checked and hash(record) == hash(checked)
        assert record.pair == checked.pair and hash(record.pair) == hash(checked.pair)
        assert vars(record.pair) == vars(checked.pair)
        assert list(vars(record)) == ["pair", "bits", "index"]
        assert list(vars(record.pair)) == ["tau", "n"]
        for field in ("bits", "index"):
            assert _exact(getattr(record, field)) == _exact(getattr(checked, field))
        assert _exact(record.pair.tau) == _exact(checked.pair.tau)
        assert _exact(record.pair.n) == _exact(checked.pair.n)


def _patched_tables(monkeypatch, n, agree=None, perms=None):
    """Replace the scan tables at n, with ``packed`` rebuilt from ``agree``."""
    tables = dict(zip(("bits", "agree", "packed", "perms"), nogo._scan_tables(n)))
    for name, table in (("agree", agree), ("perms", perms)):
        if table is not None:
            tables[name] = table
    tables["packed"] = np.packbits(tables["agree"], axis=-1)
    patched = tuple(tables[name] for name in ("bits", "agree", "packed", "perms"))
    monkeypatch.setattr(nogo, "_scan_tables", lambda size: patched)


@pytest.mark.parametrize(
    "n, row, keep",
    [
        # tau = (2, 2) fixes slot 2, so its cells are kept witnesses
        (2, [1, 1], True),
        # tau = (2, 1, 1, 3) fixes no slot on 0110, a reported counterexample
        (4, [1, 0, 0, 2], False),
        # tau = (1, 1, 1, 1) fixes slot 1 and reports nothing itself, but
        # the other rows report counterexamples, and every row is checked
        (4, [0, 0, 0, 0], False),
    ],
)
def test_scan_rejects_a_table_row_that_is_not_a_permutation(monkeypatch, n, row, keep):
    perms = nogo._scan_tables(n)[3].copy()
    perms[-1] = row
    _patched_tables(monkeypatch, n, perms=perms)
    with pytest.raises(ValueError, match="permutation"):
        fixed_bit_scan(n, keep_witnesses=keep)


def test_scan_rejects_a_witness_slot_whose_bits_differ(monkeypatch):
    # an agree table that claims every slot agrees with itself and every
    # other slot: the first slot is then reported for every cell, which is
    # wrong wherever b_1 != b_tau(1)
    agree = nogo._scan_tables(4)[1]
    _patched_tables(monkeypatch, 4, agree=np.ones_like(agree))
    assert not fixed_bit_scan(4).counterexamples
    with pytest.raises(ValueError, match="b_j = b_tau"):
        fixed_bit_scan(4, keep_witnesses=True)


def test_witness_invariant_enforced():
    pair = PermutationPair((2, 1), 2)
    with pytest.raises(ValueError):
        FixedBitWitness(pair, (0, 1), 1)
    with pytest.raises(ValueError):
        PermutationPair((1, 1), 2)


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

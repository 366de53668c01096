"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from rrqc import channels, nogo, qcore, qswitch
from rrqc.channels import N_XY, pauli_kraus, product_pauli_kraus
from rrqc.protocols import (
    CONTROL_HOLDER,
    LocalityError,
    LocalUnitary,
    MessageState,
    OutcomePolicy,
    Party,
    branch_map,
    haar_message,
    run_controlled_ops_protocol,
    run_definite_order_baseline,
    run_noiseless_protocol,
    run_switch_protocol,
)

TOL = 1e-9


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_c01_two_party_closed_form_matches_generic_switch():
    started = time.perf_counter()
    result = qswitch.validate_closed_forms(seed=20240811, trials=100, ns=(2,))
    elapsed = time.perf_counter() - started
    draws = [r.deviation for r in result.records if r.kind == "two-party"]
    worst = max(draws)
    passed = len(draws) == 100 and worst < TOL and elapsed < 5.0
    _report(
        1,
        passed,
        f"100 random two-party draws, max Choi deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_c02_n_party_closed_form_matches_generic_switch():
    deviations = {}
    for n in (1, 2, 3):
        ops = product_pauli_kraus([N_XY] * n)
        deviations[n] = qswitch.choi_deviation(qswitch.closed_form_nxy_n(n), ops, ops)
    sw2 = qswitch.closed_form_nxy_n(2)
    structure_ok = (
        sw2.plus_strings == {("I", "I"): 0.5, ("Z", "Z"): 0.5}
        and sw2.minus_strings == {("I", "Z"): 0.5, ("Z", "I"): 0.5}
        and sw2.p_plus == 0.5
        and sw2.p_minus == 0.5
    )
    worst = max(deviations.values())
    _report(
        2,
        worst < TOL and structure_ok,
        f"max deviation {worst:.3e} over n=1..3, n=2 four-term structure exact",
    )


def test_c03_switch_protocol_perfect_on_every_branch():
    rng = np.random.default_rng(101)
    worst = 1.0
    runs = 0
    for n in (2, 3, 4, 5):
        for x in range(1, n + 1):
            for _ in range(20):
                result = run_switch_protocol(
                    haar_message(rng), n, x, OutcomePolicy.exhaustive()
                )
                runs += 1
                worst = min(worst, result.min_fidelity)
                for branch in result.branches:
                    assert branch.transcript.classical_bits_from(CONTROL_HOLDER) == 1
                    assert branch.transcript.nonlocal_events() == []
    _report(
        3,
        worst > 1 - TOL,
        f"{runs} runs over n in 2..5, worst branch fidelity {worst:.12f}, "
        "1 control bit and 0 nonlocal events per transcript",
    )


def test_c04_definite_order_gap():
    plus = run_definite_order_baseline(MessageState.plus(), 2, 1)
    rng = np.random.default_rng(7)
    count = 10_000
    messages = [haar_message(rng) for _ in range(count)]
    results = branch_map("baseline", 2, 1).evaluate_many(messages, OutcomePolicy.sample(0))
    mean = sum(r.fidelity for r in results) / count
    passed = abs(plus.fidelity - 0.5) < TOL and abs(mean - 2 / 3) < 0.01
    _report(
        4,
        passed,
        f"|+> fidelity {plus.fidelity:.12f} (target 0.5), "
        f"Haar mean {mean:.4f} over {count} samples (target 2/3)",
    )


def test_c05_noiseless_protocol_perfect():
    rng = np.random.default_rng(55)
    worst = 1.0
    for n in range(1, 6):
        for x in range(1, n + 1):
            for _ in range(5):
                result = run_noiseless_protocol(
                    haar_message(rng), n, x, OutcomePolicy.exhaustive()
                )
                worst = min(worst, result.min_fidelity)
    _report(5, worst > 1 - TOL, f"worst branch fidelity {worst:.12f} for n <= 5, all x")


def test_c06_controlled_ops_protocol_perfect_with_flagged_gates():
    rng = np.random.default_rng(66)
    worst = 1.0
    counts_ok = True
    for n in (2, 3, 4):
        for x in range(1, n + 1):
            result = run_controlled_ops_protocol(haar_message(rng), n, x)
            worst = min(worst, result.min_fidelity)
            for branch in result.branches:
                counts_ok = counts_ok and len(branch.transcript.nonlocal_events()) == n - 1
    _report(
        6,
        worst > 1 - TOL and counts_ok,
        f"worst branch fidelity {worst:.12f}, transcripts flag exactly n-1 nonlocal CNOTs",
    )


def test_c07_fixed_bit_scan_parity():
    counts = {}
    for n in (2, 3, 4, 6, 7):
        counts[n] = nogo.fixed_bit_scan(n).counterexample_count
    started = time.perf_counter()
    counts[5] = nogo.fixed_bit_scan(5).counterexample_count
    elapsed5 = time.perf_counter() - started
    passed = (
        all(counts[n] == 0 for n in (3, 5, 7))
        and all(counts[n] >= 1 for n in (2, 4, 6))
        and elapsed5 < 1.0
    )
    _report(
        7,
        passed,
        f"counterexamples {counts}, n=5 scan in {elapsed5 * 1000:.0f}ms",
    )


def test_c08_entanglement_breaking_certification():
    nxy = channels.is_entanglement_breaking_qubit(channels.choi(pauli_kraus(N_XY)))
    ident = channels.is_entanglement_breaking_qubit(
        channels.choi(pauli_kraus(channels.IDENTITY))
    )
    dephasing = channels.is_entanglement_breaking_qubit(
        channels.choi(pauli_kraus(channels.FULL_DEPHASING))
    )
    passed = (
        nxy.entanglement_breaking
        and not ident.entanglement_breaking
        and dephasing.entanglement_breaking
    )
    _report(
        8,
        passed,
        f"equal-X/Y EB witness {nxy.witness:.3e}, identity witness {ident.witness:.3f}, "
        "full dephasing EB",
    )


def test_c09_kraus_representation_invariance():
    rng = np.random.default_rng(99)
    a = pauli_kraus(N_XY)
    b = pauli_kraus(channels.random_pauli_channel(rng))
    rho = qcore.random_density((2,), rng)
    omega = qcore.random_density((2,), rng)
    base = qswitch.switch_generic(a, b, rho, omega).matrix
    worst = 0.0
    for trial in range(10):
        mixing = (
            qcore.random_unitary(2, rng)
            if trial % 2
            else qcore.random_unitary(4, rng)[:, :2]
        )
        out = qswitch.switch_generic(qcore.recombine_kraus(a, mixing), b, rho, omega)
        worst = max(worst, float(np.abs(out.matrix - base).max()))
    _report(9, worst < TOL, f"max output deviation {worst:.3e} over 10 recombinations")


def test_c10_locality_guard():
    rng = np.random.default_rng(1234)
    caught = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        first = int(rng.integers(1, n + 1))
        second = int(rng.integers(1, n + 1))
        while second == first:
            second = int(rng.integers(1, n + 1))
        try:
            LocalUnitary(
                Party(first, frozenset({first - 1})), (first - 1, second - 1), qcore.CNOT
            )
        except LocalityError:
            caught += 1
    _report(10, caught == 100, f"{caught}/100 cross-party unitaries rejected")


def test_c11_order_qubit_carries_no_message_information():
    rng = np.random.default_rng(77)
    ops = product_pauli_kraus([N_XY, N_XY])
    omega = qcore.KET_PLUS.density()
    marginals = []
    for _ in range(20):
        rho = qcore.random_ket((2, 2), rng).density()
        out = qswitch.switch_generic(ops, ops, rho, omega)
        marginals.append(qcore.partial_trace(out, {2}).matrix)
    worst = max(
        float(np.abs(m - marginals[0]).max()) for m in marginals[1:]
    )
    _report(11, worst < TOL, f"control marginal spread {worst:.3e} over 20 messages")

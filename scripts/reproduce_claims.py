#!/usr/bin/env python3
"""Reproduce every desk-scale claim in one run.

Covers: closed-form switched channels against the generic construction,
entanglement-breaking certification, perfect protocol fidelities against the
degraded definite-order baseline, and the odd/even fixed-bit scans.
"""

import argparse
import time

import numpy as np

from rrqc import channels, nogo, qswitch
from rrqc.protocols import (
    MessageState,
    OutcomePolicy,
    branch_map,
    haar_message,
    run_controlled_ops_protocol,
    run_definite_order_baseline,
    run_noiseless_protocol,
    run_switch_protocol,
)


def banner(title):
    print(f"\n=== {title} ===")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--haar-samples", type=int, default=10_000)
    args = parser.parse_args()

    banner("closed forms vs generic switch")
    started = time.perf_counter()
    validation = qswitch.validate_closed_forms(args.seed, args.trials)
    print(
        f"{len(validation.records)} comparisons (n=1..3, {args.trials} random "
        f"two-party draws), max Choi deviation {validation.max_deviation:.3e} "
        f"in {time.perf_counter() - started:.2f}s -> "
        f"{'OK' if validation.passed else 'FAILED'}"
    )

    banner("entanglement-breaking certification")
    for name, ch in (
        ("equal X/Y mixture", channels.N_XY),
        ("identity", channels.IDENTITY),
        ("full dephasing", channels.FULL_DEPHASING),
    ):
        verdict = channels.is_entanglement_breaking_qubit(
            channels.choi(channels.pauli_kraus(ch))
        )
        print(
            f"{name:>18}: EB={verdict.entanglement_breaking!s:<5} "
            f"witness={verdict.witness:+.4f}"
        )

    banner("protocol fidelities (worst branch over all targets)")
    rng = np.random.default_rng(args.seed)
    print(f"{'n':>2} {'noiseless':>10} {'switch':>10} {'controlled':>10} {'baseline':>10}")
    for n in range(2, 6):
        worst = {"noiseless": 1.0, "switch": 1.0, "controlled": 1.0, "baseline": 1.0}
        for x in range(1, n + 1):
            msg = haar_message(rng)
            policy = OutcomePolicy.exhaustive()
            worst["noiseless"] = min(
                worst["noiseless"], run_noiseless_protocol(msg, n, x, policy).min_fidelity
            )
            worst["switch"] = min(
                worst["switch"], run_switch_protocol(msg, n, x, policy).min_fidelity
            )
            worst["controlled"] = min(
                worst["controlled"],
                run_controlled_ops_protocol(msg, n, x, policy).min_fidelity,
            )
            worst["baseline"] = min(
                worst["baseline"],
                run_definite_order_baseline(msg, n, x, policy).min_fidelity,
            )
        print(
            f"{n:>2} {worst['noiseless']:>10.6f} {worst['switch']:>10.6f} "
            f"{worst['controlled']:>10.6f} {worst['baseline']:>10.6f}"
        )

    banner("definite-order gap")
    plus = run_definite_order_baseline(MessageState.plus(), 2, 1)
    print(f"baseline fidelity for |+>: {plus.fidelity:.6f} (expected 0.5)")
    messages = [haar_message(rng) for _ in range(args.haar_samples)]
    results = branch_map("baseline", 2, 1).evaluate_many(messages, OutcomePolicy.sample(0))
    print(
        f"baseline Haar-mean fidelity: "
        f"{sum(r.fidelity for r in results) / args.haar_samples:.4f} over "
        f"{args.haar_samples} samples (expected 2/3); the switch protocol "
        "stays at 1 for every message"
    )

    banner("fixed-bit no-go scan")
    for n in range(2, 8):
        started = time.perf_counter()
        report = nogo.fixed_bit_scan(n)
        print(
            f"n={n}: {report.counterexample_count:>4} counterexamples over "
            f"{report.cells:>6} cells in {time.perf_counter() - started:.2f}s "
            f"({'odd: routing always pins a receiver' if n % 2 else 'even: routing can evade'})"
        )


if __name__ == "__main__":
    main()

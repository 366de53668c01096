"""The benchmark's workloads.

Each workload turns a seeded generator into a list of case inputs, runs one
case through the adapter, and checks the case's outputs against the
oracles. A case is the unit of latency: the closed loop starts the next
case only when the previous one has returned.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracles
from oracles import TOL


def _check_branches(case_label, alpha, beta, branches, expected_fidelity):
    """Problems shared by every protocol check: fidelity against the oracle,
    and rrqc's reported fidelity against one recomputed from the final state."""
    problems = []
    for i, br in enumerate(branches):
        recomputed = oracles.pure_fidelity(alpha, beta, br.final_state)
        if abs(recomputed - br.fidelity) > TOL:
            problems.append(
                f"{case_label} branch {i}: reported fidelity {br.fidelity!r}, "
                f"final state gives {recomputed!r}"
            )
        if abs(br.fidelity - expected_fidelity) > TOL:
            problems.append(
                f"{case_label} branch {i}: fidelity {br.fidelity!r}, "
                f"expected {expected_fidelity!r}"
            )
    return problems


class WideExhaustive:
    name = "wide-exhaustive"
    why = (
        "switch and controlled-ops at n = 6 (128x128 register) with all 64 branches "
        "enumerated, where qcore's dense kernels and state validation dominate"
    )
    n = 6
    variants = ("switch", "controlled-ops")
    pool = 512
    trace_cases = 12  # every (variant, x) pair once

    def inputs(self, rng, count):
        messages = oracles.haar_messages(rng, count)
        return [
            (self.variants[i % 2], (i // 2) % self.n + 1, complex(a), complex(b))
            for i, (a, b) in enumerate(messages)
        ]

    def run(self, api, case, scratch):
        variant, x, alpha, beta = case
        return api.run_protocol(variant, alpha, beta, self.n, x)

    def check(self, api, case, result, scratch):
        variant, x, alpha, beta = case
        label = f"{variant} x={x}"
        branches = api.branches(result)
        problems = _check_branches(label, alpha, beta, branches, oracles.PERFECT_FIDELITY)
        expected = oracles.exhaustive_branches(self.n)
        if len(branches) != expected or len({b.outcomes for b in branches}) != expected:
            problems.append(f"{label}: {len(branches)} branches, expected {expected} distinct")
        total = sum(b.probability for b in branches)
        if abs(total - 1.0) > TOL:
            problems.append(f"{label}: branch probabilities sum to {total!r}")
        for i, br in enumerate(branches):
            if variant == "switch" and br.control_bits != oracles.CONTROL_BITS:
                problems.append(f"{label} branch {i}: {br.control_bits} control bits")
            if variant == "controlled-ops" and br.flagged_nonlocal != oracles.flagged_cnots(self.n):
                problems.append(f"{label} branch {i}: {br.flagged_nonlocal} flagged CNOTs")
        return problems


class NarrowSweep:
    name = "narrow-sweep"
    why = (
        "one seeded Haar message through the switch and the definite-order baseline at "
        "n = 2 on a sampled trajectory, where per-call wrapper cost dominates"
    )
    n = 2
    pool = 65536
    trace_cases = 400

    def inputs(self, rng, count):
        messages = oracles.haar_messages(rng, count)
        targets = rng.integers(1, self.n + 1, size=count)
        seeds = rng.integers(0, 2**31, size=count)
        return [
            (int(x), complex(a), complex(b), int(s))
            for (a, b), x, s in zip(messages, targets, seeds)
        ]

    def run(self, api, case, scratch):
        x, alpha, beta, seed = case
        return (
            api.run_protocol("switch", alpha, beta, self.n, x, sample_seed=seed),
            api.run_protocol("baseline", alpha, beta, self.n, x, sample_seed=seed),
        )

    def check(self, api, case, result, scratch):
        x, alpha, beta, _ = case
        switch, baseline = (api.branches(r) for r in result)
        problems = _check_branches(f"switch x={x}", alpha, beta, switch, oracles.PERFECT_FIDELITY)
        problems += _check_branches(
            f"baseline x={x}", alpha, beta, baseline, oracles.baseline_fidelity(alpha, beta)
        )
        if len(switch) != 1 or len(baseline) != 1:
            problems.append(f"x={x}: sampled runs gave {len(switch)}, {len(baseline)} branches")
        if any(b.control_bits != oracles.CONTROL_BITS for b in switch):
            problems.append(f"switch x={x}: control bits {[b.control_bits for b in switch]}")
        return problems


class VerifyCli:
    name = "verify-cli"
    why = (
        "seeded validate-switch, nogo-scan n = 2..7 and eb-check rounds through the CLI "
        "with JSON output, exercising qswitch, channels, nogo and cli but not protocols"
    )
    pool = 1024
    trace_cases = 8
    trials = 10
    scan_ns = range(2, 8)
    eb_checks = 4

    def inputs(self, rng, count):
        cases = []
        for _ in range(count):
            calls = [
                ("validate", ["validate-switch", "--seed", str(int(rng.integers(2**31))),
                              "--trials", str(self.trials)], None)
            ]
            calls += [(f"nogo-{n}", ["nogo-scan", "--n", str(n)], n) for n in self.scan_ns]
            for i in range(self.eb_checks):
                weights = oracles.draw_pauli_weights(rng)
                expect = "eb" if oracles.pauli_entanglement_breaking(weights) else "not-eb"
                argv = ["eb-check", "--weights", ",".join(repr(w) for w in weights),
                        "--expect", expect]
                calls.append((f"eb-{i}", argv, weights))
            cases.append(calls)
        return cases

    def run(self, api, case, scratch):
        return [
            api.cli(argv + ["--format", "json", "--output", str(Path(scratch) / f"{label}.json")])
            for label, argv, _ in case
        ]

    def check(self, api, case, result, scratch):
        problems = []
        for (label, _, arg), code in zip(case, result):
            if code != 0:
                problems.append(f"{label}: exit code {code}")
                continue
            summary = json.loads((Path(scratch) / f"{label}.json").read_text())["summary"]
            if summary["passed"] is not True:
                problems.append(f"{label}: summary.passed is {summary['passed']!r}")
            if label == "validate":
                expected = oracles.validate_comparisons(self.trials)
                if summary["comparisons"] != expected or not summary["max_deviation"] < TOL:
                    problems.append(f"{label}: {summary}")
            elif label.startswith("nogo"):
                has_counterexamples = summary["counterexamples"] > 0
                if (
                    summary["cells"] != oracles.nogo_cells(arg)
                    or has_counterexamples != oracles.nogo_has_counterexamples(arg)
                ):
                    problems.append(f"{label}: {summary}")
            elif summary["entanglement_breaking"] != oracles.pauli_entanglement_breaking(arg):
                problems.append(f"{label}: weights {arg}, {summary}")
        return problems


WORKLOADS = {w.name: w for w in (WideExhaustive(), NarrowSweep(), VerifyCli())}

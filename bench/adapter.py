"""The one place where the benchmark calls into rrqc.

Workloads hand plain inputs (amplitudes, receiver counts, seeds, CLI argument
lists) to an ``Rrqc`` object and get back plain Python data. When an rrqc
entry point is renamed or its signature changes, this file is the only one
to update. The semantics each workload depends on are pinned here: protocol
runs name their outcome policy explicitly instead of relying on rrqc's
receiver-count default.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("qcore", "channels", "qswitch", "protocols", "nogo", "cli")

_RUNNERS = {
    "switch": "run_switch_protocol",
    "baseline": "run_definite_order_baseline",
    "controlled-ops": "run_controlled_ops_protocol",
}


def _count_dropped(counters, measured):
    counters["qcore.measure_projective.outcomes_dropped"] += len(measured.dropped)


def _count_protocol(counters, result):
    counters["protocols.runs"] += 1
    counters["protocols.branches"] += len(result.branches)
    counters["protocols.transcript_events"] += sum(
        len(br.transcript.events) for br in result.branches
    )


def _worst_deviation(counters, deviation):
    key = "qswitch.max_deviation"
    counters[key] = max(counters[key], float(getattr(deviation, "max_deviation", deviation)))


def _count_cells(counters, report):
    counters["nogo.cells"] += report.cells


def _count_bytes(counters, rendered):
    counters["cli.report_bytes"] += len(rendered.encode("utf-8"))


#: What the traced run wraps: (span name, layer, attribute paths, counter hook).
#: A path is a module function, ``Class.method`` or ``TABLE[*]`` for every
#: value of a module-level dict. Unlisted public functions of a layer go to
#: its ``other`` span so that the time of the layer calling them is not
#: inflated by them.
TRACE_TARGETS = (
    ("qcore.density_matrix", "qcore", ("DensityMatrix.from_matrix",), None),
    ("qcore.measure_projective", "qcore", ("measure_projective",), _count_dropped),
    ("qcore.embed", "qcore", ("embed",), None),
    ("qcore.apply_kraus", "qcore", ("apply_kraus",), None),
    ("qcore.kraus_defect", "qcore", ("kraus_defect",), None),
    ("qcore.partial_trace", "qcore", ("partial_trace",), None),
    (
        "qcore.other",
        "qcore",
        ("tensor", "identity", "controlled_not", "fidelity_pure", "recombine_kraus",
         "random_ket", "random_density", "random_unitary"),
        None,
    ),
    ("protocols", "protocols", tuple(_RUNNERS.values()) + ("run_noiseless_protocol",),
     _count_protocol),
    ("qswitch.closed_form", "qswitch", ("closed_form_nxy_n", "closed_form_two_party"), None),
    ("qswitch.switched_apply", "qswitch", ("SwitchedChannel.apply",), None),
    ("qswitch.generic", "qswitch", ("switch_generic", "switch_kraus", "switched_kraus"), None),
    ("qswitch.choi_deviation", "qswitch", ("choi_deviation",), _worst_deviation),
    ("qswitch.other", "qswitch", ("validate_closed_forms",), _worst_deviation),
    ("channels.choi", "channels", ("choi",), None),
    ("channels.product_pauli_kraus", "channels", ("product_pauli_kraus",), None),
    (
        "channels.other",
        "channels",
        ("pauli_kraus", "pauli_string", "compose", "is_entanglement_breaking_qubit",
         "random_pauli_channel"),
        None,
    ),
    ("nogo.fixed_bit_scan", "nogo", ("fixed_bit_scan",), _count_cells),
    ("cli.main", "cli", ("main",), None),
    ("cli.command", "cli", ("COMMANDS[*]",), None),
    ("cli.render", "cli", ("Report.render",), _count_bytes),
)


@dataclass(frozen=True)
class Branch:
    """One outcome branch of a protocol run, as plain data."""

    probability: float
    fidelity: float
    outcomes: tuple[tuple[str, int], ...]
    final_state: object  # 2x2 complex ndarray of the target's qubit
    control_bits: int  # classical bits sent by the order-control holder
    flagged_nonlocal: int  # NonlocalOperation events flagged in the transcript


class Rrqc:
    """A fresh import of rrqc from a source tree.

    Creating one drops any rrqc modules already imported, so the import cost
    is paid again; the benchmark counts it as set-up time.
    """

    def __init__(self, src_dir: Path):
        src = str(src_dir)
        if src not in sys.path:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules if m == "rrqc" or m.startswith("rrqc.")]:
            del sys.modules[name]
        self.modules = {name: importlib.import_module(f"rrqc.{name}") for name in LAYERS}
        self.version = importlib.import_module("rrqc").__version__

    def run_protocol(self, variant, alpha, beta, n, x, sample_seed=None):
        """Run one protocol on the message alpha|0> + beta|1>.

        ``sample_seed=None`` enumerates every outcome branch; an integer
        follows one seeded sampled trajectory.
        """
        protocols = self.modules["protocols"]
        policy = (
            protocols.OutcomePolicy.exhaustive()
            if sample_seed is None
            else protocols.OutcomePolicy.sample(int(sample_seed))
        )
        runner = getattr(protocols, _RUNNERS[variant])
        return runner(protocols.MessageState(alpha, beta), n, x, policy)

    def branches(self, result) -> list[Branch]:
        """Flatten a protocol result into plain branch records."""
        protocols = self.modules["protocols"]
        out = []
        for br in result.branches:
            control_bits = 0
            flagged = 0
            for event in br.transcript.events:
                if (
                    isinstance(event, protocols.ClassicalMessage)
                    and event.sender == protocols.CONTROL_HOLDER
                ):
                    control_bits += len(event.bits)
                elif isinstance(event, protocols.NonlocalOperation) and event.flagged:
                    flagged += 1
            out.append(
                Branch(
                    probability=float(br.probability),
                    fidelity=float(br.fidelity),
                    outcomes=tuple(sorted(br.outcomes.items())),
                    final_state=br.final_state.matrix,
                    control_bits=control_bits,
                    flagged_nonlocal=flagged,
                )
            )
        return out

    def cli(self, argv: list[str]) -> int:
        """Run ``rrqc <argv>`` in this process and return its exit code.

        The CLI's elapsed-time line on stderr is swallowed so the benchmark's
        own output stays parseable.
        """
        with contextlib.redirect_stderr(io.StringIO()):
            return self.modules["cli"].main(list(argv))

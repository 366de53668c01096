"""The batched protocol engine against the per-branch reference engine.

Every variant, receiver count and target, under exhaustive enumeration and
three seeded sampled trajectories, must give the same branches in the same
order, the same outcome bits and the same transcripts, event by event and
field by field; probabilities, fidelities and final states must agree
within 1e-12.
"""

import dataclasses

import numpy as np
import pytest

import reference_engine
from rrqc import protocols
from rrqc.protocols import OutcomePolicy, haar_message
from rrqc.qcore import Operator

RUNNERS = {
    "noiseless": protocols.run_noiseless_protocol,
    "switch": protocols.run_switch_protocol,
    "baseline": protocols.run_definite_order_baseline,
    "controlled-ops": protocols.run_controlled_ops_protocol,
}

POLICIES = (
    OutcomePolicy.exhaustive(),
    OutcomePolicy.sample(0),
    OutcomePolicy.sample(1),
    OutcomePolicy.sample(2),
)


def _event_fields(event):
    """Type and every field of an event; operators compare by entries."""
    values = []
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if isinstance(value, Operator):
            value = (value.entries.tobytes(), value.dims, value.col_dims)
        values.append((f.name, value))
    return type(event), tuple(values)


def assert_same_run(new, ref):
    assert len(new.branches) == len(ref.branches)
    for a, b in zip(new.branches, ref.branches):
        assert list(a.outcomes.items()) == list(b.outcomes.items())
        assert a.transcript.allow_nonlocal == b.transcript.allow_nonlocal
        assert [_event_fields(e) for e in a.transcript.events] == [
            _event_fields(e) for e in b.transcript.events
        ]
        assert abs(a.probability - b.probability) < 1e-12
        assert abs(a.fidelity - b.fidelity) < 1e-12
        assert a.final_state.dims == b.final_state.dims
        np.testing.assert_allclose(
            a.final_state.matrix, b.final_state.matrix, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("variant", list(RUNNERS))
def test_batched_engine_matches_reference_engine(variant, n):
    msg = haar_message(np.random.default_rng(n))
    for x in range(1, n + 1):
        for policy in POLICIES:
            new = RUNNERS[variant](msg, n, x, policy)
            ref = reference_engine.RUNNERS[variant](msg, n, x, policy)
            assert_same_run(new, ref)

"""Bit-identity: span-recording telemetry never perturbs the accounting.

:class:`~repro.telemetry.NullTelemetry`'s ``charge`` is exactly the seed's
flat per-phase update, and the oracle's ``null`` arm runs on one: every
walk holds its per-phase totals *equal as floats* to the recording
reference's.  Here, the schedule this suite has always pinned — every
tree variant, with the split-processing modes, whose pre-processing
charges land in ``Phase.BACKGROUND``.
"""

import pytest

from repro.metrics import Phase
from tests.oracle.fleet import CASES, Fleet


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{v}{'+split' if s else ''}" for v, _, s in CASES]
)
def test_by_phase_bit_identical_to_null_recorder(case):
    with Fleet(case, arms=("reference", "null"), first=12, bucket_size=2) as fleet:
        for _ in range(2):
            fleet.background()
            fleet.advance(2, 2)
        fleet.check()
        recorded, null = (fleet.engines[arm] for arm in ("reference", "null"))
        assert dict(recorded.telemetry.by_phase) == dict(null.telemetry.by_phase)
        if case[2]:
            assert recorded.telemetry.by_phase.get(Phase.BACKGROUND, 0.0) > 0.0
        # The recording run additionally grew a closed span tree.
        assert recorded.telemetry.span_count() > 1
        assert null.telemetry.span_count() == 1

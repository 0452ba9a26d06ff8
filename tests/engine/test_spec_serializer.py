"""The hand-rolled serializers against the ``asdict``/``json.dumps`` forms.

``CampaignSpec.to_dict``, ``outcome_record`` and ``_canonical_bytes``
replaced ``dataclasses.asdict`` and per-call ``json.dumps``.  Checkpoint
manifests, saved request traces, outcome spills and the aggregate's
checksum chain all hash or store these forms, so they must agree with the
old ones value for value, key order included, and byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine import (
    BUDGET,
    DEADLINE,
    CampaignOutcome,
    CampaignSpec,
    ListSource,
    OutcomeAggregate,
    outcome_record,
)
from repro.engine.outcomes import _canonical_bytes

ids = st.text(min_size=1) | st.sampled_from(["é-campaign", "キャンペーン", "🚀x"])
floats = st.floats(0.0, 1e6) | st.sampled_from([-0.0, 1e-300, 0.1])

_common = dict(
    campaign_id=ids,
    num_tasks=st.integers(1, 10**6),
    submit_interval=st.integers(0, 10**4),
    horizon_intervals=st.integers(1, 10**4),
    max_price=st.integers(1, 500),
    penalty_per_task=floats,
    resolve_every=st.integers(1, 64),
)
specs = st.builds(
    CampaignSpec, kind=st.just(DEADLINE), adaptive=st.booleans(),
    budget=st.none() | floats, **_common,
) | st.builds(
    CampaignSpec, kind=st.just(BUDGET), budget=st.floats(1e-300, 1e6),
    **_common,
)
outcomes = st.builds(
    CampaignOutcome,
    spec=specs,
    completed=st.integers(0, 10**6),
    remaining=st.integers(0, 10**6),
    total_cost=floats | st.floats(allow_nan=True, allow_infinity=True),
    penalty=floats,
    finished_interval=st.none() | st.integers(0, 10**4),
    cache_hit=st.booleans(),
    num_solves=st.integers(0, 100),
    cancelled=st.booleans(),
)

EDGE = CampaignOutcome(
    spec=CampaignSpec(
        "ñ-√-🚀", DEADLINE, 3, 0, 2, penalty_per_task=-0.0, budget=None,
    ),
    completed=1,
    remaining=2,
    total_cost=1e-300,
    penalty=-0.0,
    finished_interval=None,
    cache_hit=False,
    num_solves=1,
)


def old_record(outcome: CampaignOutcome, with_spec: bool = True) -> dict:
    record = {
        "campaign_id": outcome.spec.campaign_id,
        "completed": outcome.completed,
        "remaining": outcome.remaining,
        "total_cost": outcome.total_cost,
        "penalty": outcome.penalty,
        "finished_interval": outcome.finished_interval,
        "cache_hit": outcome.cache_hit,
        "num_solves": outcome.num_solves,
        "cancelled": outcome.cancelled,
    }
    if with_spec:
        record["spec"] = dataclasses.asdict(outcome.spec)
    return record


def old_bytes(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


@given(specs)
@example(EDGE.spec)
def test_spec_to_dict_matches_asdict(spec):
    data = spec.to_dict()
    expected = dataclasses.asdict(spec)
    assert data == expected
    assert list(data) == list(expected)
    assert json.dumps(data) == json.dumps(expected)
    assert CampaignSpec(**data) == spec


@given(outcomes, st.booleans())
@example(EDGE, True)
def test_outcome_record_and_bytes_match_old_forms(outcome, with_spec):
    record = outcome_record(outcome, with_spec=with_spec)
    expected = old_record(outcome, with_spec=with_spec)
    assert json.dumps(record) == json.dumps(expected)
    assert list(record) == list(expected)
    if with_spec:
        assert list(record["spec"]) == list(expected["spec"])
    assert _canonical_bytes(record) == old_bytes(expected)


@given(st.lists(outcomes, max_size=6))
def test_checksum_chain_matches_old_bytes(batch):
    digest = b"\x00" * 32
    for outcome in batch:
        digest = hashlib.sha256(digest + old_bytes(old_record(outcome))).digest()
    assert OutcomeAggregate.from_outcomes(batch).checksum == digest.hex()


@given(st.lists(specs, max_size=5, unique_by=lambda s: s.campaign_id))
def test_list_source_descriptor_matches_asdict(batch):
    source = ListSource(batch)
    expected = [dataclasses.asdict(s) for s in source]
    assert json.dumps(source.to_dict()["specs"]) == json.dumps(expected)

"""``request_to_dict`` against the ``dataclasses.asdict`` form it replaced.

Saved :class:`~repro.serve.requests.RequestTrace` files and event-log
request rows depend on the dict's keys *and* their order, so both are
checked for every :data:`~repro.serve.requests.REQUEST_TYPES` member.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.engine.campaign import CampaignSpec
from repro.serve.requests import (
    REQUEST_TYPES,
    Cancel,
    QueryTelemetry,
    Quote,
    Snapshot,
    SubmitCampaign,
    request_from_dict,
    request_kind,
    request_to_dict,
)


def asdict_form(request) -> dict:
    """The serialization ``request_to_dict`` used to compute."""
    data = dataclasses.asdict(request)
    spec = data.get("spec")
    if spec is not None:
        data["spec"] = dict(spec)
    return {"type": request_kind(request), **data}


_common = dict(
    campaign_id=st.text(min_size=1),
    num_tasks=st.integers(1, 10**6),
    submit_interval=st.integers(0, 10**4),
    horizon_intervals=st.integers(1, 10**4),
    max_price=st.integers(1, 500),
    penalty_per_task=st.floats(0.0, 1e6),
    resolve_every=st.integers(1, 64),
)
specs = st.builds(
    CampaignSpec, kind=st.just("deadline"), adaptive=st.booleans(),
    budget=st.none() | st.floats(0.01, 1e6), **_common,
) | st.builds(
    CampaignSpec, kind=st.just("budget"), budget=st.floats(0.01, 1e6),
    **_common,
)

STRATEGIES = {
    SubmitCampaign: st.builds(SubmitCampaign, specs),
    Quote: st.builds(Quote, specs, st.booleans()),
    Cancel: st.builds(Cancel, st.text()),
    QueryTelemetry: st.builds(QueryTelemetry, st.integers(0, 10**6)),
    Snapshot: st.builds(Snapshot, st.text()),
}


def test_every_request_type_has_a_strategy():
    assert set(STRATEGIES) == set(REQUEST_TYPES.values())


@given(st.one_of(*STRATEGIES.values()))
def test_request_to_dict_matches_asdict(request_):
    data = request_to_dict(request_)
    expected = asdict_form(request_)
    assert data == expected
    assert list(data) == list(expected)
    spec = data.get("spec")
    if spec is not None:
        assert list(spec) == list(expected["spec"])
    assert request_from_dict(data) == request_

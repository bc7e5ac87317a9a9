"""The one-pass independent payload path vs ``instance_from_payload``.

``hashed_instance_from_payload`` validates and hashes an independent-task
payload without building a single ``Task`` (``InstancePayload.parse``).
It must be indistinguishable from the building path it short-cuts: it
raises exactly when ``instance_from_payload`` raises (the same error
type), and otherwise reports the same content hash — the digest the
golden fixtures and every persistent cache key are pinned to.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance, InstancePayload
from repro.service.protocol import (
    ProtocolError,
    hashed_instance_from_payload,
    instance_from_payload,
)
from repro.workloads import workload_suite

# The literal pinned in tests/test_cache.py (REFERENCE_HASH).
REFERENCE = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
REFERENCE_HASH = "3d7197ccfe57dd3fce443c9de431e8480cf115e5903bb8623adb3c1f16558b72"

_floats = st.floats(allow_nan=True, allow_infinity=True)
# A small id pool makes duplicates (and 1 == 1.0 == True collisions) common.
_ids = st.one_of(
    st.integers(-2, 3), st.sampled_from(["a", "b", "1"]), _floats, st.booleans(),
    st.none(), st.lists(st.integers(0, 1), max_size=2),
)
_numbers = st.one_of(
    st.integers(-3, 50), _floats, st.booleans(), st.none(), st.just(10**400),
    st.sampled_from(["0", "1", "2.5", " 3 ", "1_0", "-1", "nan", "inf", "1e400", "x", ""]),
    st.lists(st.integers(), max_size=1),
)
_ms = st.one_of(
    st.integers(-2, 6), _floats, st.booleans(), st.none(), st.just(10**400),
    st.sampled_from(["4", " 2 ", "2.0", "x", ""]),
)
_junk = st.one_of(
    st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_good_record = st.fixed_dictionaries(
    {"id": st.integers(0, 6) | st.sampled_from(["a", "b"]),
     "p": st.integers(0, 9) | st.floats(0, 100) | st.sampled_from(["1", "2.5"]),
     "s": st.integers(0, 9) | st.floats(0, 100) | st.sampled_from(["0", " 3 "])},
    optional={"label": st.none() | st.text(max_size=3)},
)


@st.composite
def _payloads(draw):
    """Mostly-valid independent payloads with at most a few mutations."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_junk)
    data = {"m": draw(st.integers(1, 5)), "tasks": draw(st.lists(_good_record, max_size=8))}
    if draw(st.booleans()):
        data["kind"] = draw(st.sampled_from(["independent", "independent", "mystery", 7]))
    if draw(st.booleans()):
        data["name"] = draw(st.none() | st.text(max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        what = draw(st.sampled_from(["m", "drop-m", "tasks", "field", "drop-field", "record"]))
        records = data.get("tasks")
        if what == "m":
            data["m"] = draw(_ms)
        elif what == "drop-m":
            data.pop("m", None)
        elif what == "tasks":
            data["tasks"] = draw(_junk)
        elif isinstance(records, list) and records:
            i = draw(st.integers(0, len(records) - 1))
            if what == "record":
                records[i] = draw(_junk)
            elif isinstance(records[i], dict):
                key = draw(st.sampled_from(["id", "p", "s"]))
                if what == "drop-field":
                    records[i].pop(key, None)
                else:
                    records[i][key] = draw(_ids if key == "id" else _numbers)
    return data


def _outcome(build, data):
    try:
        return "ok", build(data).content_hash()
    except Exception as exc:  # the error type is the observable
        return "error", type(exc)


def _valid_payloads():
    """Well-formed records only, so most examples reach the fast path."""
    record = st.fixed_dictionaries(
        {"id": st.integers(0, 10**6) | st.text(max_size=4),
         "p": st.floats(0, 1e6) | st.integers(0, 10**6),
         "s": st.floats(0, 1e6) | st.integers(0, 10**6)},
        optional={"label": st.text(max_size=3)},
    )
    return st.fixed_dictionaries(
        {"m": st.integers(1, 16),
         "tasks": st.lists(record, max_size=12, unique_by=lambda r: r["id"])},
        optional={"kind": st.just("independent"), "name": st.text(max_size=4)},
    )


class TestPayloadPathMatchesBuild:
    @settings(max_examples=1000, deadline=None)
    @given(_payloads())
    def test_raises_exactly_when_build_raises(self, data):
        expected = _outcome(instance_from_payload, data)
        assert _outcome(hashed_instance_from_payload, data) == expected
        if expected[0] == "error":
            assert expected[1] is ProtocolError

    @settings(max_examples=300, deadline=None)
    @given(_valid_payloads())
    def test_valid_payloads_take_the_fast_path(self, data):
        # The wire hands the server decoded JSON; round-trip to match it.
        data = json.loads(json.dumps(data))
        built = instance_from_payload(data)
        payload = hashed_instance_from_payload(data)
        assert isinstance(payload, InstancePayload)
        assert payload.content_hash() == built.content_hash()
        assert payload.n == built.n
        rebuilt = payload.build()
        assert rebuilt == built and rebuilt.name == built.name
        # Seeded, not recomputed — and equal to a fresh computation.
        assert rebuilt._content_hash == payload.content_hash()
        assert Instance.from_dict(data).content_hash() == payload.content_hash()

    def test_pinned_reference_digest(self):
        payload = InstancePayload.parse(REFERENCE.to_dict())
        assert payload is not None
        assert payload.content_hash() == REFERENCE_HASH

    def test_workload_suite_digests(self):
        for instance in workload_suite(60, 4, seed=3).values():
            payload = InstancePayload.parse(json.loads(instance.to_json()))
            assert payload is not None
            assert payload.content_hash() == instance.content_hash()

    def test_other_kinds_and_non_list_tasks_are_built(self):
        dag = {"kind": "dag", "m": 2, "tasks": [{"id": 0, "p": 1, "s": 1}], "edges": []}
        assert InstancePayload.parse(dag) is None
        assert not isinstance(hashed_instance_from_payload(dag), InstancePayload)
        assert InstancePayload.parse({"m": 2, "tasks": ({"id": 0, "p": 1, "s": 1},)}) is None

    @pytest.mark.parametrize("data", [
        {"m": float("inf"), "tasks": []},
        {"m": 2, "tasks": [{"id": 0, "p": 10**400, "s": 1}]},
    ])
    @pytest.mark.parametrize("build", [instance_from_payload, hashed_instance_from_payload])
    def test_overflowing_numbers_are_protocol_errors(self, build, data):
        with pytest.raises(ProtocolError, match="malformed instance payload"):
            build(data)

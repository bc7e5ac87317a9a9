"""Wire-protocol fast path: JSON safety and orjson gating.

Covers the two wire-layer guarantees of the line-delimited JSON codec:

* the deep ``_is_json_safe`` check with the ``provenance_truncated``
  marker (deeply nested provenance used to be *silently* dropped past
  depth 3);
* the ``orjson`` encode/decode fast path — exercised through a stub
  module, so the gating is pinned with or without the accelerator
  installed: payloads containing non-finite floats must take the stdlib
  path (orjson would silently serialize ``inf`` as ``null``), strict
  payloads may take the fast path, and both produce the identical
  documented wire format;
* solve responses, whose finiteness ``result_to_payload`` decides, encode
  to the same bytes as a full recursive scan would choose — with the real
  orjson and with the stdlib encoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

import repro.service.protocol as protocol
from repro.core.instance import Instance
from repro.service.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    result_to_payload,
)
from repro.solvers import solve


@pytest.fixture
def inst():
    return Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)


# --------------------------------------------------------------------------- #
# deep JSON safety + provenance_truncated (the silent-truncation bugfix)
# --------------------------------------------------------------------------- #
class TestProvenanceDepth:
    def _result_with_extras(self, inst, extras):
        result = solve(inst, "lpt", cache=False)
        return replace(result, provenance={**result.provenance, **extras})

    def test_depth_four_provenance_survives(self, inst):
        # Depth-4 nesting was silently dropped by the old depth-3 cutoff.
        deep = {"l1": {"l2": {"l3": {"l4": "value"}}}}
        payload = result_to_payload(self._result_with_extras(inst, {"deep": deep}))
        assert payload["extras"]["deep"] == deep
        assert "provenance_truncated" not in payload
        # And it must round-trip the wire intact.
        decoded = decode_message(encode_message(payload))
        assert decoded["extras"]["deep"] == deep

    def test_very_deep_provenance_survives(self, inst):
        nested: object = "leaf"
        for _ in range(20):
            nested = {"n": nested}
        payload = result_to_payload(self._result_with_extras(inst, {"deep": nested}))
        assert payload["extras"]["deep"] == nested
        assert "provenance_truncated" not in payload

    def test_unserializable_extra_is_marked_not_silent(self, inst):
        result = self._result_with_extras(
            inst, {"native": object(), "fine": {"a": [1, 2]}}
        )
        payload = result_to_payload(result)
        assert payload["extras"]["fine"] == {"a": [1, 2]}
        assert "native" not in payload["extras"]
        assert payload["provenance_truncated"] == ["native"]

    def test_non_string_keys_are_marked(self, inst):
        payload = result_to_payload(
            self._result_with_extras(inst, {"intkeys": {1: "x"}})
        )
        assert payload["provenance_truncated"] == ["intkeys"]

    def test_pathological_depth_still_bounded(self, inst):
        nested: object = "leaf"
        for _ in range(500):
            nested = [nested]
        payload = result_to_payload(self._result_with_extras(inst, {"mad": nested}))
        assert payload["provenance_truncated"] == ["mad"]


# --------------------------------------------------------------------------- #
# orjson gating (via stub: the gate is pinned whether or not orjson is installed)
# --------------------------------------------------------------------------- #
class _FakeOrjson:
    """Mimics orjson's contract: strict JSON only, bytes out, TypeError on
    non-string keys, rejects Infinity/NaN literals on parse.  ``dumps``
    raises ``ValueError`` if a non-finite float ever reaches it — which is
    exactly the bug the ``_has_non_finite`` guard must prevent."""

    class JSONDecodeError(ValueError):
        pass

    calls: list

    def __init__(self):
        self.calls = []

    def dumps(self, obj) -> bytes:
        self._check_keys(obj)
        self.calls.append("dumps")
        return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode()

    def loads(self, data):
        self.calls.append("loads")

        def reject(const):
            raise _FakeOrjson.JSONDecodeError(f"non-finite literal {const}")

        try:
            return json.loads(data, parse_constant=reject)
        except json.JSONDecodeError as exc:
            raise _FakeOrjson.JSONDecodeError(str(exc)) from None

    @classmethod
    def _check_keys(cls, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if not isinstance(k, str):
                    raise TypeError(f"non-str key {k!r}")
                cls._check_keys(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                cls._check_keys(v)


class TestOrjsonGate:
    @pytest.fixture
    def fake(self, monkeypatch):
        stub = _FakeOrjson()
        monkeypatch.setattr(protocol, "_orjson", stub)
        return stub

    def test_strict_payload_takes_fast_path(self, fake):
        payload = {"op": "solve", "spec": "lpt", "n": 3, "xs": [1.5, 2.0]}
        line = encode_message(payload)
        assert "dumps" in fake.calls
        # Byte-identical to the documented stdlib wire format.
        assert line == (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        assert decode_message(line) == payload

    def test_non_finite_payload_falls_back_to_stdlib(self, fake):
        payload = {"guarantee": [2.0, math.inf], "nan": math.nan}
        line = encode_message(payload)  # must NOT raise, must NOT nullify
        assert b"Infinity" in line
        assert "dumps" not in fake.calls
        decoded = decode_message(line)
        assert decoded["guarantee"][1] == math.inf
        assert math.isnan(decoded["nan"])

    def test_non_finite_nested_in_tuple_detected(self, fake):
        line = encode_message({"t": ({"x": [math.inf]},)})
        assert b"Infinity" in line and "dumps" not in fake.calls

    def test_non_str_keys_fall_back(self, fake):
        # stdlib json coerces int keys to strings; orjson raises TypeError.
        line = encode_message({"m": {1: "x"}})
        assert decode_message(line) == {"m": {"1": "x"}}

    def test_decode_falls_back_on_infinity_literal(self, fake):
        decoded = decode_message(b'{"cmax": Infinity}\n')
        assert decoded["cmax"] == math.inf
        assert "loads" in fake.calls  # tried the fast path first

    def test_decode_invalid_json_still_protocol_error(self, fake):
        with pytest.raises(ProtocolError):
            decode_message(b"{nope\n")

    def test_without_accelerator_everything_works(self, monkeypatch):
        monkeypatch.setattr(protocol, "_orjson", None)
        payload = {"a": [1.0, math.inf], "b": "x"}
        assert decode_message(encode_message(payload)) == payload


# --------------------------------------------------------------------------- #
# solve responses: byte-identical to the full-scan encoder
# --------------------------------------------------------------------------- #
def _full_scan_non_finite(value: object) -> bool:
    """The recursive scan encode_message ran over every whole response."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_full_scan_non_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_full_scan_non_finite(v) for v in value)
    return False


def _plain(value: object) -> object:
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def _full_scan_encode(payload: dict) -> bytes:
    """encode_message before result payloads carried their finiteness."""
    payload = _plain(payload)
    if protocol._orjson is not None and not _full_scan_non_finite(payload):
        try:
            return protocol._orjson.dumps(payload) + b"\n"
        except TypeError:
            pass
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def _wire_cases():
    from repro.core.instance import DAGInstance
    from repro.extensions.uniform_machines import UniformInstance
    from repro.workloads import workload_suite

    mix = ("lpt", "multifit", "sbo(delta=0.5)", "sbo(delta=1.0)",
           "sbo(delta=2.0, inner=multifit)", "rls(delta=2.5)", "trio(delta=2.5)",
           "pareto_approx(epsilon=0.5)")
    instance = next(iter(workload_suite(60, 4, seed=0).values()))
    cases = [(spec, solve(instance, spec, cache=False)) for spec in mix]
    dag = DAGInstance.from_lists(p=[3, 2, 1, 4, 2], s=[1, 2, 2, 1, 3], m=2,
                                 edges=[(0, 1), (0, 2), (2, 3), (1, 4)])
    cases.append(("dag rls", solve(dag, "rls(delta=3)", cache=False)))
    uniform = UniformInstance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], speeds=[1.0, 2.5])
    cases.append(("uniform", solve(uniform, "uniform_list", cache=False)))
    small = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
    infeasible = solve(small, "constrained(budget=0.01)", cache=False)
    assert not infeasible.feasible
    cases.append(("infeasible constrained", infeasible))
    # Ids the type shortcut cannot vouch for: the full scan must still decide.
    odd = Instance.from_lists(p=[1, 2, 3], s=[3, 2, 1], m=2, ids=[0.5, (1, 2.5), "x"])
    cases.append(("float and tuple ids", solve(odd, "sbo(delta=1.0)", cache=False)))
    unbounded = Instance.from_lists(p=[1, 2], s=[2, 1], m=2, ids=[math.inf, -math.inf])
    cases.append(("infinite ids", solve(unbounded, "sbo(delta=1.0)", cache=False)))
    return cases


WIRE_CASES = _wire_cases()


class TestSolveResponseBytes:
    @pytest.fixture(params=["orjson", "stdlib"])
    def encoder(self, request, monkeypatch):
        if request.param == "orjson":
            pytest.importorskip("orjson")
        else:
            monkeypatch.setattr(protocol, "_orjson", None)
        return request.param

    @pytest.mark.parametrize("name,result", WIRE_CASES, ids=[name for name, _ in WIRE_CASES])
    def test_bytes_match_full_scan(self, encoder, name, result):
        for request_id in (7, "req-7", None, math.nan):
            response = {"id": request_id, "ok": True, "result": result_to_payload(result)}
            assert encode_message(response) == _full_scan_encode(response), (name, request_id)

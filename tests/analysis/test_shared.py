"""Shared-state certificates: audit rules on violating values, and the
full certification pass over all five tree variants."""

from __future__ import annotations

import io
import pickle
import threading

import pytest

from repro.analysis.shared import (
    CERTIFIED_VARIANTS,
    ParallelSafetyCertificate,
    audit_value,
    certificate_findings,
    certify_variant,
)


def rules_of(findings):
    return sorted(f.rule for f in findings if f.severity == "error")


class Opaque:
    """Picklable, but its default repr embeds the object address."""


# -- audit rules on violating values ----------------------------------------


def test_plain_data_passes():
    assert audit_value({"a": [1, 2, (3, "x")]}, "fixture") == []


def test_unpicklable_value_flagged():
    assert rules_of(audit_value(lambda x: x, "fixture")) == [
        "shared.unpicklable"
    ]


def test_open_file_is_process_local():
    rules = rules_of(audit_value(io.StringIO("x"), "fixture"))
    assert "shared.process-local" in rules


def test_nested_handle_found():
    payload = {"results": [{"log": io.BytesIO(b"")}]}
    rules = rules_of(audit_value(payload, "fixture"))
    assert "shared.process-local" in rules


def test_lock_inside_object_found():
    class Holder:
        def __init__(self):
            self.guard = threading.Lock()

    rules = rules_of(audit_value(Holder(), "fixture"))
    assert "shared.process-local" in rules


def test_generator_is_process_local():
    gen = (i for i in range(3))
    rules = rules_of(audit_value({"cursor": gen}, "fixture"))
    assert "shared.process-local" in rules


def test_default_repr_is_identity_dependent():
    assert rules_of(audit_value(Opaque(), "fixture")) == ["shared.identity"]


def test_identity_insensitive_audit_allows_default_repr():
    assert audit_value(Opaque(), "fixture", identity_sensitive=False) == []


def test_unstable_fingerprint_flagged():
    findings = audit_value(
        (1, 2, 3), "fixture", fingerprint=lambda value: id(value)
    )
    assert rules_of(findings) == ["shared.identity"]


def test_stable_fingerprint_passes():
    findings = audit_value(
        (1, 2, 3), "fixture", fingerprint=lambda value: hash(value)
    )
    assert findings == []


def test_findings_carry_where():
    findings = audit_value(lambda: None, "variant:memo:0xbeef")
    assert findings[0].where == "variant:memo:0xbeef"


# -- certificates ------------------------------------------------------------


@pytest.mark.parametrize("variant,mode", CERTIFIED_VARIANTS)
def test_variant_certifies_parallel_safe(variant, mode):
    cert = certify_variant(variant, mode, advances=2)
    assert cert.verdict == "parallel-safe", [
        f.render() for f in cert.errors
    ]
    assert cert.runs == 3
    assert cert.steps_analyzed > 0
    assert cert.values_audited > 0
    assert cert.checks["purity"]["errors"] == 0
    assert cert.checks["races"]["errors"] == 0
    assert cert.checks["shared"]["errors"] == 0


def test_certificate_dict_is_machine_readable():
    cert = certify_variant("folding", "variable", advances=1)
    payload = cert.to_dict()
    assert payload["schema"] == "parallel-safety-certificate/v2"
    assert payload["verdict"] == "parallel-safe"
    assert set(payload["checks"]) == {"purity", "races", "shared"}
    # the certificate itself must cross a process boundary
    assert pickle.loads(pickle.dumps(payload)) == payload
    import json

    json.dumps(payload)  # and serialize to JSON for artifact upload


def test_unsafe_certificate_yields_summary_error():
    from repro.analysis.findings import ERROR, Finding

    cert = ParallelSafetyCertificate(
        variant="folding", mode="variable", job="j"
    )
    cert.findings.append(
        Finding(
            rule="shared.unpicklable",
            message="x",
            where="fixture",
            severity=ERROR,
        )
    )
    findings = certificate_findings([cert])
    assert "certificate.unsafe" in rules_of(findings)


def test_safe_certificates_yield_no_errors():
    cert = ParallelSafetyCertificate(
        variant="folding", mode="variable", job="j"
    )
    assert certificate_findings([cert]) == []

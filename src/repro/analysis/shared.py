"""Shared-state certificates: the multi-process admission gate.

Running the PlanExecutor across worker processes moves state across
process boundaries: tree state and combiner instances to workers, memo
values and log records back, checkpoint segments to disk and back.  This
module audits everything that would cross, and emits one
machine-readable **parallel-safety certificate** per tree variant — the
verdict the process execution backend's allowlist is tied to before it
admits a (variant, window mode) pair to parallel execution.

Three audit rules per value:

``shared.unpicklable``
    the value does not survive ``pickle`` round-trip — it cannot cross a
    process boundary at all;
``shared.process-local``
    the value's object graph holds a process-local handle (open file,
    socket, lock, thread, generator, weakref, memoryview, module) that
    would be meaningless in another process;
``shared.identity``
    the value's identity is address-dependent: its repr embeds ``at 0x``
    (so any repr-derived key or fingerprint differs per process), or its
    content fingerprint changes across a pickle round-trip (so the
    uid a partition crosses the seam under would name other content).

:func:`certify_variant` runs a small canonical scenario for one variant,
then combines three verdicts into the certificate: the purity walk over
the job plane (:mod:`repro.analysis.purity`), plan-level race detection
over every executed run (:mod:`repro.analysis.races`), and the shared-
state audit over memo values, combiner state, log records, and
checkpoint segments.  The verdict is ``parallel-safe`` iff no
error-severity finding was recorded anywhere.
"""

from __future__ import annotations

import io
import pickle
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.analysis.findings import ERROR, Finding
from repro.analysis.purity import analyze_functions
from repro.analysis.races import analyze_plan
from repro.core.backends import CERTIFIED_PARALLEL_VARIANTS

#: The five variants and the window mode each runs under: the process
#: backend's own list, so what is certified is what may dispatch.
CERTIFIED_VARIANTS = CERTIFIED_PARALLEL_VARIANTS

#: Certificate schema identifier; bump on breaking format changes.
CERTIFICATE_SCHEMA = "parallel-safety-certificate/v2"

#: Object-graph walk bounds for the handle scan.
_MAX_SCAN_NODES = 20_000
_MAX_SCAN_DEPTH = 12

#: Values per container the audit samples (memo tables can be large).
_AUDIT_SAMPLE = 64


def _handle_types() -> tuple[type, ...]:
    import socket
    import threading

    lock_type = type(threading.Lock())
    rlock_type = type(threading.RLock())
    return (
        io.IOBase,
        socket.socket,
        threading.Thread,
        lock_type,
        rlock_type,
        types.GeneratorType,
        types.CoroutineType,
        types.FrameType,
        types.TracebackType,
        memoryview,
        types.ModuleType,
    )


_HANDLE_TYPES = _handle_types()


def _scan_for_handles(value: Any) -> str | None:
    """Breadth-first walk of the object graph; returns a description of
    the first process-local handle found, or None."""
    seen: set[int] = set()
    queue: list[tuple[Any, int]] = [(value, 0)]
    visited = 0
    while queue:
        current, depth = queue.pop()
        if id(current) in seen or depth > _MAX_SCAN_DEPTH:
            continue
        seen.add(id(current))
        visited += 1
        if visited > _MAX_SCAN_NODES:
            return None  # bounded: give up quietly rather than stall CI
        if isinstance(current, _HANDLE_TYPES):
            return type(current).__name__
        import weakref

        if isinstance(current, (weakref.ref, weakref.ProxyType)):
            return type(current).__name__
        if isinstance(current, dict):
            for k, v in current.items():
                queue.append((k, depth + 1))
                queue.append((v, depth + 1))
        elif isinstance(current, (list, tuple, set, frozenset)):
            for item in current:
                queue.append((item, depth + 1))
        elif hasattr(current, "__dict__") and not isinstance(
            current, (type, types.FunctionType)
        ):
            queue.append((vars(current), depth + 1))
        if hasattr(current, "__slots__") and not isinstance(current, type):
            for slot in type(current).__mro__:
                for name in getattr(slot, "__slots__", ()):
                    if hasattr(current, name):
                        queue.append((getattr(current, name), depth + 1))
    return None


def audit_value(
    value: Any,
    where: str,
    *,
    fingerprint: Callable[[Any], Any] | None = None,
    identity_sensitive: bool = True,
) -> list[Finding]:
    """Audit one value that would cross a process boundary.

    ``identity_sensitive=False`` skips the repr-address check — for values
    that cross as *code/config* (combiner instances, re-imported on the
    worker side) rather than as content-addressed data, an address-bearing
    default repr is harmless because it never feeds a fingerprint.
    """
    findings: list[Finding] = []
    handle = _scan_for_handles(value)
    if handle is not None:
        findings.append(
            Finding(
                rule="shared.process-local",
                message=(
                    f"holds a process-local handle ({handle}) — it cannot "
                    "cross a process boundary meaningfully"
                ),
                where=where,
                severity=ERROR,
            )
        )
    try:
        blob = pickle.dumps(value)
        clone = pickle.loads(blob)
    except Exception as exc:
        findings.append(
            Finding(
                rule="shared.unpicklable",
                message=f"does not survive pickle round-trip: {exc!r}",
                where=where,
                severity=ERROR,
            )
        )
        return findings
    if identity_sensitive and " at 0x" in repr(value):
        findings.append(
            Finding(
                rule="shared.identity",
                message=(
                    "repr embeds an object address (default repr) — any "
                    "repr-derived key or fingerprint is process-dependent"
                ),
                where=where,
                severity=ERROR,
            )
        )
    if fingerprint is not None:
        try:
            before = fingerprint(value)
            after = fingerprint(clone)
        except Exception as exc:
            findings.append(
                Finding(
                    rule="shared.identity",
                    message=f"fingerprinting failed: {exc!r}",
                    where=where,
                    severity=ERROR,
                )
            )
        else:
            if before != after:
                findings.append(
                    Finding(
                        rule="shared.identity",
                        message=(
                            "content fingerprint changes across a pickle "
                            "round-trip — shared-store content addressing "
                            "would split or collide entries"
                        ),
                        where=where,
                        severity=ERROR,
                    )
                )
    return findings


def _sample(items: Iterable[Any], limit: int = _AUDIT_SAMPLE) -> list[Any]:
    out: list[Any] = []
    for i, item in enumerate(items):
        if i >= limit:
            break
        out.append(item)
    return out


# ---------------------------------------------------------------------------
# certificates


@dataclass
class ParallelSafetyCertificate:
    """The machine-readable admission artifact for one (job, variant)."""

    variant: str
    mode: str
    job: str
    runs: int = 0
    steps_analyzed: int = 0
    values_audited: int = 0
    benign_races: int = 0
    findings: list[Finding] = field(default_factory=list)
    checks: dict[str, dict] = field(default_factory=dict)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def verdict(self) -> str:
        return "parallel-safe" if not self.errors else "unsafe"

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "variant": self.variant,
            "mode": self.mode,
            "job": self.job,
            "verdict": self.verdict,
            "runs": self.runs,
            "steps_analyzed": self.steps_analyzed,
            "values_audited": self.values_audited,
            "benign_races": self.benign_races,
            "checks": self.checks,
            "findings": [f.render() for f in self.findings],
        }


def _scenario_engine(variant: str, mode: str) -> tuple[Any, Any]:
    from repro.mapreduce.combiners import SumCombiner
    from repro.mapreduce.job import MapReduceJob
    from repro.slider.system import Slider, SliderConfig
    from repro.slider.window import WindowMode

    window_mode = {
        "variable": WindowMode.VARIABLE,
        "fixed": WindowMode.FIXED,
        "append": WindowMode.APPEND,
    }[mode]
    job = MapReduceJob(
        name="certificate-counts",
        map_fn=_certificate_map,
        combiner=SumCombiner(),
        num_reducers=2,
    )
    return (
        Slider(
            job,
            mode=window_mode,
            config=SliderConfig(tree=variant, mode=window_mode),
        ),
        window_mode,
    )


def _certificate_map(record: int) -> list[tuple[int, int]]:
    return [(record, 1)]


def certify_variant(
    variant: str,
    mode: str,
    advances: int = 3,
    *,
    run_races: bool = True,
    run_shared: bool = True,
) -> ParallelSafetyCertificate:
    """Run the canonical scenario for one variant and certify it.

    A certificate produced with a pass disabled records that pass as
    skipped in ``checks`` — it still carries a verdict, but only over the
    passes that ran.
    """
    from repro.mapreduce.types import Split
    from repro.recovery.state import capture_engine_state
    from repro.slider.window import WindowMode

    engine, window_mode = _scenario_engine(variant, mode)
    cert = ParallelSafetyCertificate(
        variant=variant, mode=mode, job=engine.job.name
    )

    splits = [
        Split.from_records(
            [f"w{(i * 7 + j) % 12}" for j in range(20)], label=f"s{i}"
        )
        for i in range(4 + advances)
    ]
    removed = 0 if window_mode is WindowMode.APPEND else 1
    results = [engine.initial_run(splits[:4])]
    for i in range(advances):
        results.append(engine.advance([splits[4 + i]], removed))

    # 1. the purity walk over the job plane.
    from repro.analysis.targets import job_target

    functions = job_target(engine.job).functions
    purity_errors = [
        f for f in analyze_functions(functions) if f.severity == ERROR
    ]
    cert.findings.extend(purity_errors)
    cert.checks["purity"] = {
        "functions": len(functions),
        "errors": len(purity_errors),
    }

    # 2. race detection over every executed run.
    race_errors = 0
    for result in results:
        cert.runs += 1
        if not run_races:
            continue
        if result.plan is not None:
            cert.steps_analyzed += len(result.plan)
            for finding in analyze_plan(
                result.plan, where=f"{variant}:run{result.run_index}"
            ):
                if finding.severity == ERROR:
                    cert.findings.append(finding)
                    race_errors += 1
                else:
                    cert.benign_races += 1
    cert.checks["races"] = (
        {
            "runs": cert.runs,
            "steps": cert.steps_analyzed,
            "errors": race_errors,
            "benign": cert.benign_races,
        }
        if run_races
        else {"skipped": True}
    )

    # 3. shared-state audit of everything that would cross a process.
    if not run_shared:
        cert.checks["shared"] = {"skipped": True}
        return cert
    shared_errors = 0

    def audit(
        value: Any,
        where: str,
        fingerprint: Callable[[Any], Any] | None = None,
        identity_sensitive: bool = True,
    ) -> None:
        nonlocal shared_errors
        found = audit_value(
            value,
            where,
            fingerprint=fingerprint,
            identity_sensitive=identity_sensitive,
        )
        cert.values_audited += 1
        shared_errors += sum(1 for f in found if f.severity == ERROR)
        cert.findings.extend(found)

    combiner = engine.job.combiner
    audit(combiner, f"{variant}:combiner", identity_sensitive=False)
    for reducer, tree in enumerate(engine.trees):
        for uid, value in _sample(tree.memo.entries.items()):
            audit(
                value,
                f"{variant}:tree{reducer}:memo:{uid:#x}",
                fingerprint=lambda p: p.uid,
            )
    for uid, outputs in _sample(engine.map_memo.items()):
        for partition in outputs:
            audit(
                partition,
                f"{variant}:map_memo:{uid:#x}",
                fingerprint=lambda p: p.uid,
            )
    for reducer, memo in enumerate(engine.reduce_memo):
        audit(dict(_sample(memo.items())), f"{variant}:reduce_memo:{reducer}")
    last = results[-1]
    if last.plan is not None:
        audit(last.plan.log.records, f"{variant}:log-records")
    # Checkpoint segments: the exact payloads write_checkpoint pickles.
    audit(capture_engine_state(engine), f"{variant}:checkpoint:state")
    cert.checks["shared"] = {
        "values": cert.values_audited,
        "errors": shared_errors,
    }
    return cert


def certify_all(
    advances: int = 3,
    *,
    run_races: bool = True,
    run_shared: bool = True,
) -> list[ParallelSafetyCertificate]:
    """Certificates for all five tree variants."""
    return [
        certify_variant(
            variant,
            mode,
            advances=advances,
            run_races=run_races,
            run_shared=run_shared,
        )
        for variant, mode in CERTIFIED_VARIANTS
    ]


def certificate_findings(
    certificates: list[ParallelSafetyCertificate],
) -> list[Finding]:
    """The findings the CLI reports: every certificate error plus one
    summary error per unsafe variant."""
    findings: list[Finding] = []
    for cert in certificates:
        findings.extend(cert.findings)
        if cert.verdict != "parallel-safe":
            findings.append(
                Finding(
                    rule="certificate.unsafe",
                    message=(
                        f"variant {cert.variant!r} failed certification: "
                        f"{len(cert.errors)} blocking finding(s)"
                    ),
                    where=f"certificate:{cert.variant}",
                    severity=ERROR,
                )
            )
    return findings

"""Contract checking: static purity analysis + algebraic-law falsification.

Slider's correctness rests on contracts the rest of the system takes on
faith: memoization is sound only for **pure, deterministic** Map/Combine/
Reduce functions, and contraction trees are legal only for **associative**
(rotating trees: also **commutative**) combiners.  This package verifies
those contracts instead of trusting them:

* :mod:`repro.analysis.purity` — the one AST walk over job functions,
  flagging nondeterminism (unseeded randomness, clocks, ``id()``/
  ``hash()``, set iteration order) and impurity (global writes, argument
  or global mutation, direct memo access, I/O), with the :func:`trusted`
  escape hatch for human-audited code;
* :mod:`repro.analysis.laws` — hypothesis-driven falsification of each
  combiner's declared algebra (associativity, commutativity, merge
  determinism, cost sanity);
* :mod:`repro.analysis.repolint` — repo-internal telemetry hygiene rules;
* :mod:`repro.analysis.races` — happens-before race detection over the
  plan IR;
* :mod:`repro.analysis.shared` — the serializability audit and the
  per-variant parallel-safety certificates
  (``parallel-safety-certificate/v2``);
* :mod:`repro.analysis.trustaudit` — the stale-trust audit over every
  ``@trusted`` mark;
* :mod:`repro.analysis.sarif` — deterministic SARIF 2.1.0 export;
* ``python -m repro.analysis`` — the CLI gluing all of it together, run
  as a blocking CI gate over the repo (``--self``) and available for user
  modules before a Slider accepts their jobs.
"""

from repro.analysis.findings import AnalysisReport, Finding, finalize
from repro.analysis.races import analyze_plan
from repro.analysis.sarif import to_sarif, write_sarif
from repro.analysis.shared import (
    ParallelSafetyCertificate,
    audit_value,
    certify_all,
    certify_variant,
)
from repro.analysis.trustaudit import TrustEntry, audit_trusted
from repro.analysis.laws import (
    check_combiner_laws,
    leaf_strategy_for,
    register_leaf_strategy,
    value_strategy_for,
)
from repro.analysis.purity import analyze_callable, analyze_functions, is_trusted, trusted
from repro.analysis.repolint import lint_file, lint_package
from repro.analysis.targets import (
    CheckTarget,
    aggregation_target,
    check_target,
    job_target,
    module_targets,
    plan_targets,
    registry_targets,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "ParallelSafetyCertificate",
    "TrustEntry",
    "analyze_plan",
    "audit_trusted",
    "audit_value",
    "certify_all",
    "certify_variant",
    "finalize",
    "to_sarif",
    "write_sarif",
    "check_combiner_laws",
    "leaf_strategy_for",
    "register_leaf_strategy",
    "value_strategy_for",
    "analyze_callable",
    "analyze_functions",
    "is_trusted",
    "trusted",
    "lint_file",
    "lint_package",
    "CheckTarget",
    "aggregation_target",
    "check_target",
    "job_target",
    "module_targets",
    "plan_targets",
    "registry_targets",
]

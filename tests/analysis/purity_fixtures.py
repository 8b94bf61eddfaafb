"""Intentional contract violations, one per purity/determinism rule.

These functions exist so the test suite can prove each rule *fires*; none
of them is ever executed.  Keep one violation per function so the tests
can assert rule -> fixture exactly.
"""

from __future__ import annotations

import datetime
import os
import random
import secrets
import subprocess
import time
import uuid

import numpy as np

from repro.common.hashing import stable_hash
from repro.common.rng import RngStream

# -- nondeterminism ---------------------------------------------------------


def unseeded_random(record):
    """purity.nondeterminism.random — module-level random."""
    yield (record, random.random())


def unseeded_numpy_random(record):
    """purity.nondeterminism.random — numpy's global generator."""
    yield (record, np.random.rand())


def reads_clock(record):
    """purity.nondeterminism.time."""
    yield (record, time.time())


def reads_wallclock_datetime(record):
    """purity.nondeterminism.time — datetime.now()."""
    yield (record, datetime.datetime.now())


def draws_entropy(record):
    """purity.nondeterminism.entropy — os.urandom."""
    return os.urandom(8)


def draws_secrets(record):
    """purity.nondeterminism.entropy — secrets module."""
    return secrets.token_bytes(8)


def fresh_uuid(record):
    """purity.nondeterminism.entropy — uuid4."""
    yield (record, uuid.uuid4())


def uses_builtin_hash(record):
    """purity.nondeterminism.hash — randomized per process for str."""
    yield (hash(record), 1)


def uses_id(record):
    """purity.nondeterminism.id — address-dependent."""
    yield (id(record), 1)


def iterates_set(records):
    """purity.nondeterminism.iteration-order — set comprehension order."""
    return list({r for r in records})


def pops_dict_item(record, table):
    """purity.nondeterminism.iteration-order — popitem takes 'last' item."""
    return table.popitem()


# -- impurity ---------------------------------------------------------------

TOTALS: dict = {}


def writes_global(record):
    """purity.impurity.global-write."""
    global TOTALS
    TOTALS = {}
    yield (record, 1)


def mutates_argument(records):
    """purity.impurity.arg-mutation — append on a parameter."""
    records.append(1)
    return records


def assigns_into_argument(table, record):
    """purity.impurity.arg-mutation — subscript store on a parameter."""
    table[record] = 1
    return table


def does_console_io(record):
    """purity.impurity.io — print."""
    print(record)
    yield (record, 1)


def opens_file(record):
    """purity.impurity.io — open()."""
    with open("/tmp/x") as handle:
        return handle.read()


def shells_out(record):
    """purity.impurity.io — subprocess."""
    return subprocess.run(["true"])


def closure_nonlocal_write(records):
    """purity.impurity.global-write — nonlocal rebinding in a helper."""
    counter = 0

    def bump(record):
        nonlocal counter
        counter += 1
        return counter

    return [bump(r) for r in records]


# -- indirect: the violation lives in a helper the checker must follow ----


def _helper_with_violation(record):
    return random.random()


def violation_in_helper(record):
    """The checker follows plain-Python helper calls (depth-limited)."""
    yield (record, _helper_with_violation(record))


# -- clean functions: must produce no findings ------------------------------


def clean_map(record):
    """Pure, deterministic — the checker must stay silent."""
    key, value = record
    yield (key, value * 2)


def clean_seeded_rng(records):
    """Seeded repro.common.rng streams are allowlisted."""
    stream = RngStream(seed=7, name="fixture")
    return [stream.uniform(0, 1) for _ in records]


def clean_stable_hash(record):
    """repro.common.hashing.stable_hash is the sanctioned hash."""
    yield (stable_hash(record), 1)


def clean_sorted_set(records):
    """Sorting a set before consuming it is deterministic."""
    return sorted({r for r in records})


def clean_local_mutation(records):
    """Mutating a local copy is pure."""
    out = list(records)
    out.append(0)
    return out


def clean_seeded_numpy(record):
    """Explicitly seeded numpy generators are allowed."""
    generator = np.random.default_rng(1234)
    return generator.normal()


# -- shared state reached through a free name -------------------------------

SEEN: set = set()
CENTROIDS = [0.0, 5.0, 10.0]


def mutates_global(record):
    """purity.impurity.global-mutation — .add on a module-level set."""
    SEEN.add(record)
    yield (record, 1)


def reads_memo(record, memo):
    """purity.impurity.memo-access — a job function doing its own caching."""
    return memo.lookup(record)


def clean_local_dict(records):
    """Mutating a dict the function built itself is pure."""
    counts = {}
    for record in records:
        counts[record] = counts.get(record, 0) + 1
    return counts


def clean_reads_mutable_global(record):
    """Reading (never writing) a module-level list: the kmeans / knn shape."""
    nearest = min(range(len(CENTROIDS)), key=lambda i: abs(CENTROIDS[i] - record))
    yield (nearest, record)

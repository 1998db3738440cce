#!/usr/bin/env python3
"""Touring the catalog: positive rows, negative cases, machine reports.

Every entry knows how to build its exact matrix realization, which
invariants to verify, and which flags to expect; `run` returns a
deterministic report whose diff against the expectations must be empty.
"""

from pvkit.catalog import catalog, get_entry, run

# The catalog splits into irreducible rows (T2.*), two-summand rows (T3.*),
# and families with no single fundamental invariant (NEG-*).
groups = {"T2": 0, "T3": 0, "NEG": 0}
for entry in catalog():
    groups[entry.id.split(".")[0].split("-")[0]] += 1
print("entries per group:", groups)

# A positive row: GL(2) x Sp(2) on M(4, 2), fundamental invariant the
# pfaffian of the 2x2 Gram matrix X^T J X.
report = run("T2.6", {"n": 2}, seed=0)
print()
print(f"T2.6 at n=2: status={report.status} qd1={report.qd1} "
      f"regular={report.regular}")
print("  dims:", report.dims)
print("  invariant:", report.invariants[0]["name"])
print("  diagram:", report.diagram, "dimension cross-check ok:", report.diagram_ok)

# A two-summand row whose invariant ignores one summand: not regular.
report = run("T3.3", {"n": 4}, seed=0)
print()
print(f"T3.3 at n=4: qd1={report.qd1} regular={report.regular} "
      "(the pfaffian ignores the covector summand)")

# A negative case: two independent invariants, so the character space is
# two-dimensional and no single fundamental invariant can exist.
report = run("NEG-4.2.8b", {}, seed=0)
print()
print(f"NEG-4.2.8b: character space dim = {report.character_dim}")
for inv in report.invariants:
    print("  verified invariant:", inv["name"])

# Reports serialize to one JSON line each (seeded, hence reproducible):
entry = get_entry("T3.9")
print()
print(f"{entry.id}: {entry.title}")
print(run("T3.9", {"n": 2}, seed=0).to_json())

"""Acceptance suite: one criterion per test, one printed verdict line each.

Everything here is exact rational arithmetic; there are no tolerances to
tune.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
from fractions import Fraction as Q

from helpers import alt_unpack, det, invariant_form_space, sequential_certified_points

from pvkit.analyzer import character_space_dim
from pvkit.catalog import catalog, run_all, summary_json
from pvkit.grading import compute_grading, irreducible_components, verify_table1
from pvkit.invariants import pfaffian
from pvkit.linalg import DetRng, Matrix
from pvkit.reps import e6_rep, g2_rep, spin_rep
from pvkit.rootsystems import WeightedDiagram, build_root_system


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPT] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_table2_reproduction():
    summary, reports = run_all("table2", seed=0)
    ok = summary["counts"]["fail"] == 0 and summary["counts"]["inconclusive"] == 0
    families = {r.entry for r in reports}
    ok = ok and len(families) == 10 and len(reports) == 15
    for r in reports:
        ok = ok and r.status == "pass" and r.character_dim == 1 and r.qd1
        ok = ok and r.regular is True
        for inv in r.invariants:
            ok = ok and inv["verified"] and inv["lambda_nonzero"] and inv["points"] >= 10
    _verdict(1, ok, f"{len(reports)} runs over {len(families)} families, "
                    "all qd1 with regular invariants at >= 10 points")


def test_criterion_2_table3_reproduction():
    expected_regular = {
        "T3.1": True, "T3.2a": False, "T3.2b": True, "T3.3": False,
        "T3.4a": False, "T3.4b": True, "T3.5": False, "T3.6": False,
        "T3.7": False, "T3.8": False, "T3.9": True,
    }
    summary, reports = run_all("table3", seed=0)
    ok = summary["counts"]["fail"] == 0 and summary["counts"]["inconclusive"] == 0
    ok = ok and {r.entry for r in reports} == set(expected_regular)
    for r in reports:
        ok = ok and r.status == "pass" and r.qd1
        ok = ok and r.regular is expected_regular[r.entry]
    _verdict(2, ok, f"{len(reports)} runs over 11 sub-cases match the "
                    "qd1/regular pattern exactly")


def test_criterion_3_negative_cases():
    char0 = {
        "NEG-4.1.3", "NEG-4.1.5", "NEG-4.1.6", "NEG-4.1.8", "NEG-4.1.9",
        "NEG-4.1.12", "NEG-4.2.1", "NEG-4.2.4", "NEG-4.2.5",
    }
    char2 = {"NEG-4.2.8b", "NEG-4.2.9b", "NEG-4.2.10", "NEG-4.2.12"}
    samples = {
        "NEG-4.1.9": [{"n": 5}, {"n": 6}],
        "NEG-4.2.1": [{"n": 3}, {"n": 4}],
        "NEG-4.1.5": [{"n": 5}, {"n": 7}],
        "NEG-4.2.4": [{"n": 5}, {"n": 7}],
        "NEG-4.2.5": [{"n": 2, "m": 3}, {"n": 4, "m": 2}],
    }
    summary, reports = run_all("negatives", seed=0)
    ok = summary["counts"]["fail"] == 0 and summary["counts"]["inconclusive"] == 0
    ok = ok and {r.entry for r in reports} == char0 | char2
    for r in reports:
        want = 0 if r.entry in char0 else 2
        ok = ok and r.status == "pass" and r.character_dim == want
    for eid, plist in samples.items():
        got = [r.params for r in reports if r.entry == eid]
        key = lambda d: sorted(d.items())
        ok = ok and sorted(got, key=key) == sorted(plist, key=key)
    _verdict(3, ok, f"{len(reports)} negative runs: character space 0 resp. 2 "
                    "exactly as classified")


def test_criterion_4_table1_reproduction():
    result = verify_table1()
    ok = result["ok"] and len({r["row"] for r in result["rows"]}) == 6
    flagged = [r for r in result["rows"] if "typo" in r["note"]]
    ok = ok and bool(flagged) and all(r["row"].startswith("A(") for r in flagged)
    _verdict(4, ok, "6 commutative-parabolic rows verified; A row flagged "
                    "with the grading-derived dimension")


def test_criterion_5_arrow_rule_example():
    rs = build_root_system("C", 7)
    grading = compute_grading(WeightedDiagram(rs, frozenset({0, 6})))
    comps = {c.circled_root: c for c in irreducible_components(grading)}
    ok = comps[0].weights == ((1, 1),) and comps[0].dimension == 6
    ok = ok and comps[6].weights == ((5, 2),) and comps[6].dimension == 21
    ok = ok and comps[0].label == "w1[sl(6)]" and comps[6].label == "2w5[sl(6)]"
    _verdict(5, ok, "C7 with vertices 1,7 circled: weights w1 and 2w5 on "
                    "sl(6), dimensions 6 and 21")


def test_criterion_6_property_suites():
    from pvkit.catalog import _build

    ok = True
    details = []

    # bracket closure for every constructed algebra
    for entry in catalog():
        built = _build(entry, dict(entry.defaults[0]))
        built.rep.structure_tensor()  # raises ClosureError on a failure
    details.append("closure")

    # Pf^2 = det on 100 random antisymmetric matrices of sizes 2..8
    rng = DetRng(120)
    for _ in range(100):
        n = 2 * rng.randint(1, 4)
        coords = [Q(rng.randint(-4, 4)) for _ in range(n * (n - 1) // 2)]
        full = Matrix.from_rows(alt_unpack(coords, n))
        ok = ok and pfaffian(n)(coords) ** 2 == det(full)
    details.append("pf^2=det x100")

    # dimension identity and lambda checks ride on the catalog runs
    summary, reports = run_all("all", seed=1)
    seed1 = hashlib.sha256(summary_json(summary).encode()).hexdigest()
    ok = ok and seed1 == SEED1_SUMMARY_SHA256
    for r in reports:
        ok = ok and r.status == "pass"
        ok = ok and r.dims["algebra"] - r.dims["isotropy"] == r.dims["space"]
        for inv in r.invariants:
            ok = ok and inv["verified"] and inv["lambda_nonzero"]
    details.append("dims+lambda")

    # character dimension stable across five certified points per entry
    for entry in catalog():
        built = _build(entry, dict(entry.defaults[0]))
        pts = sequential_certified_points(built.rep, 5, 11)
        dims = {len(character_space_dim(built.rep, p)) for p in pts}
        ok = ok and dims == {entry.expected_character_dim}
    details.append("char stability x5")

    ok = ok and invariant_form_space(spin_rep(7)) == 1
    ok = ok and invariant_form_space(spin_rep(9)) == 1
    ok = ok and g2_rep().algebra_dim == 14
    ok = ok and e6_rep().algebra_dim == 78
    details.append("spin forms, g2=14, e6=78")

    _verdict(6, ok, "; ".join(details))


# sha256 of the seed-0 summary JSON; it changes only with the report schema
SUMMARY_SHA256 = "23079c12e6eab44274361e716bf6cff490aeaa7bc289ab82f4ab8dd4a6b4c99b"
# the same for seed 1, which criterion 6 runs anyway
SEED1_SUMMARY_SHA256 = "03bae879ff99ca15212eb4becd9c67303e6e4b84ea13d3b01c62ec27a0aa224d"


def test_criterion_7_determinism():
    first, _ = run_all("all", seed=0)
    second, _ = run_all("all", seed=0)
    a, b = summary_json(first), summary_json(second)
    digest = hashlib.sha256(a.encode()).hexdigest()
    ok = a == b and len(a) > 1000 and digest == SUMMARY_SHA256
    _verdict(7, ok, f"two runs agree byte for byte "
                    f"({len(a)} bytes of summary JSON, sha256 {digest[:12]})")

"""Acceptance gate: one pass/fail line per criterion at the stated tolerances."""
import time

import numpy as np
import pytest

from shiftunital import (base_blocks, build_unital, bounds, construct_theta,
                         coulter_matthews_spec, count_classes, find_thetas,
                         kloosterman_table, make_field, make_tower, rank2_of_unital,
                         spectrum_size, square_spec, thm_membership_criterion)
from shiftunital.gf2rank import rank2_by_characters

from oracles import member
from paper_checks import (parametrize_circle, quadratic_form_count, verify_chi_square_lemma,
                          verify_dual_ovals, verify_orthogonality)

QS = (3, 5, 7, 9)
EXPECTED_RANK = {3: 25, 5: 121, 7: 337, 9: 721}


def fresh_instances():
    """Build the five desk-scale instances from cold setups (field caches aside)."""
    out = []
    for q in QS:
        p, m = (3, 2) if q == 9 else (q, 1)
        tower = make_tower(make_field(p, m))
        f = square_spec(tower.ext)
        out.append((q, f.name, tower, f, construct_theta(tower)))
    tower = make_tower(make_field(3, 2))
    f = coulter_matthews_spec(tower.ext, 3)
    out.append((9, f.name, tower, f, find_thetas(f, tower)[0]))
    return out


@pytest.fixture(scope="module")
def computed():
    """Shared state across criteria so expensive runs happen once, in order."""
    return {}


def both_ranks(computed):
    if "ranks" in computed:
        return computed["ranks"]
    t0 = time.monotonic()
    rows = []
    for q, name, tower, f, setup in fresh_instances():
        design = build_unital(f, setup)
        rows.append((q, name, design, setup, f,
                     rank2_of_unital(design), spectrum_size(setup, f).size))
    computed["ranks"] = (rows, time.monotonic() - t0)
    return computed["ranks"]


def q27_state(computed):
    if "q27" not in computed:
        tower = make_tower(make_field(3, 3))
        f = square_spec(tower.ext)
        setup = construct_theta(tower)
        t0 = time.monotonic()
        res = spectrum_size(setup, f)
        computed["q27"] = {"tower": tower, "f": f, "setup": setup, "spectrum": res,
                           "spectrum_secs": time.monotonic() - t0}
    return computed["q27"]


def emit(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_rank_values(computed, capsys):
    rows, secs = both_ranks(computed)
    ok = secs < 60
    got = []
    for q, name, design, setup, f, r2, rs in rows:
        ok = ok and r2 == EXPECTED_RANK[q] and rs == EXPECTED_RANK[q]
        got.append(f"q={q}/{name}:{r2}")
    emit(capsys, 1, ok,
         f"ranks {', '.join(got)} on both engines in {secs:.1f}s (< 60s)")


def test_criterion_02_engine_agreement(computed, capsys):
    rows, secs = both_ranks(computed)
    diffs = [(q, name) for q, name, d, s, f, r2, rs in rows if r2 != rs]
    emit(capsys, 2, not diffs,
         f"gf2 and spectrum agree on all {len(rows)} instances"
         + (f"; disagreements: {diffs}" if diffs else ""))


def test_criterion_03_bound_chain(computed, capsys):
    rows, secs = both_ranks(computed)
    ok = True
    for q, name, design, setup, f, r2, rs in rows:
        b = bounds(q, *((3, 2) if q == 9 else (q, 1)))
        low = max(b["leung_xiang"], b["corollary"] or 0)
        ok = ok and b["leung_xiang"] <= low <= r2 <= b["upper"]
    b9 = bounds(9, 3, 2)
    ok = ok and (b9["upper"], b9["leung_xiang"], b9["corollary"]) == (721, 465, 527)
    b3 = bounds(3, 3, 1)
    ok = ok and (b3["upper"], b3["leung_xiang"], b3["corollary"]) == (25, 17, 25)
    emit(capsys, 3, ok,
         "lx <= corollary <= rank <= upper on every instance; "
         "q=9 bounds (721, 465, 527), q=3 bounds (25, 17, 25)")


def test_criterion_04_q27_engines(computed, capsys):
    st = q27_state(computed)
    res, secs = st["spectrum"], st["spectrum_secs"]
    ok = 13625 <= res.size <= 19657 and secs < 600
    t0 = time.monotonic()
    r2 = rank2_by_characters(base_blocks(st["f"], st["setup"]))[0]
    gf2_secs = time.monotonic() - t0
    ok = ok and r2 == res.size and gf2_secs < 1800
    match = "matches" if res.size == 19657 else "does not match"
    emit(capsys, 4, ok,
         f"q=27 spectrum {res.size} in {secs:.0f}s (< 600s), gf2 early-stop "
         f"{r2} in {gf2_secs:.0f}s (< 1800s); {match} the conjectured "
         f"q^3-q+1 = 19657 (reported, not asserted)")


def test_criterion_05_kloosterman_classification(capsys):
    t0 = time.monotonic()
    expected = {1: (0, 1), 2: (3, 2), 3: (10, 7), 4: (33, 20)}
    ok = True
    for m, want in expected.items():
        # raises on any congruence exception
        got = count_classes(kloosterman_table(make_field(3, m)))
        ok = ok and (got["count_b"], got["count_c"]) == want
    secs = time.monotonic() - t0
    emit(capsys, 5, ok and secs < 30,
         f"mod-4 classification exception-free for m=1..4, class counts "
         f"(0,1),(3,2),(10,7),(33,20) in {secs:.1f}s (< 30s)")


def test_criterion_06_membership_criterion(computed, capsys):
    st = q27_state(computed)
    tallies = []
    ok = True
    for q, setup, res in [
            (9, construct_theta(make_tower(make_field(3, 2))), None),
            (27, st["setup"], st["spectrum"])]:
        if res is None:
            f = square_spec(setup.tower.ext)
            res = spectrum_size(setup, f)
        checked = met = bad = 0
        for w in range(1, q):
            for u in range(1, q):
                for ch in ((u, 0, w), (0, u, w)):
                    out = thm_membership_criterion(setup, *ch)
                    checked += 1
                    if out["criterion_met"]:
                        met += 1
                        if not member(res, *ch):
                            bad += 1
        ok = ok and bad == 0 and checked == 2 * (q - 1) ** 2
        tallies.append(f"q={q}: {met}/{checked} met, {bad} counterexamples")
    emit(capsys, 6, ok, "; ".join(tallies))


def test_criterion_07_lemma_suite(computed, capsys):
    rows, secs = both_ranks(computed)
    ok = True
    # (a) chi_{u,v,0} always in the spectrum, chi_{0,0,w!=0} never, exhaustively
    for q, name, design, setup, f, r2, rs in rows:
        res = spectrum_size(setup, f)
        for u in range(q):
            for v in range(q):
                ok = ok and member(res, u, v, 0)
        for w in range(1, q):
            ok = ok and not member(res, 0, 0, w)
    # (b) sum_c chi(a c^2) = 1 for a != 0
    for q in (3, 9, 27):
        ok = ok and verify_chi_square_lemma(q)["ok"]
    # (c) additive-character orthogonality over GF(q) and GF(q^2)
    for q in (3, 5, 7, 9, 27):
        ok = ok and verify_orthogonality(q)["ok"]
    # (d) nondegenerate quadratic form counts match the closed forms
    rng = np.random.default_rng(7)
    forms_checked = 0
    for q in QS:
        p, m = (3, 2) if q == 9 else (q, 1)
        fld = make_field(p, m)
        for n in (1, 2, 3, 4):
            done = 0
            while done < 100:
                mat = rng.integers(0, q, (n, n))
                form = [[int(mat[min(i, j), max(i, j)]) for j in range(n)]
                        for i in range(n)]
                try:
                    quadratic_form_count(fld, form, int(rng.integers(0, q)))
                except Exception as exc:
                    if "degenerate" in str(exc):
                        continue
                    ok = False
                    break
                done += 1
            forms_checked += done
    emit(capsys, 7, ok,
         f"spectrum boundary lemmas exhaustive for q <= 9, chi-square lemma "
         f"for q in (3,9,27), orthogonality for all q <= 27, {forms_checked} "
         f"random quadratic forms match the closed counts")


def test_criterion_08_dual_ovals(computed, capsys):
    rows, secs = both_ranks(computed)
    ok = True
    for q, name, design, setup, f, r2, rs in rows:
        rep = verify_dual_ovals(design, setup)
        ok = ok and rep["ok"] and rep["oval_rank"] == q
    emit(capsys, 8, ok,
         "every block meets every oval in 0 or 2 points and the q oval "
         "vectors are independent, exhaustively for all five q <= 9 instances")


def test_criterion_09_circle_parametrizations(capsys):
    ok = True
    printed, corrected = [], []
    for q in (5, 9):
        p, m = (3, 2) if q == 9 else (q, 1)
        setup = construct_theta(make_tower(make_field(p, m)))
        for beta in (1, setup.tower.alpha):
            par = parametrize_circle(setup, 1, beta)
            ok = ok and par.source == "printed" and len(par.points) == q + 1
        printed.append(q)
    for q in (3, 7, 11):
        setup = construct_theta(make_tower(make_field(q, 1)))
        for beta in (1, setup.tower.alpha):
            par = parametrize_circle(setup, 3, beta)
            ok = ok and par.source == "corrected" and len(par.points) == q + 1
            ok = ok and par.discrepancy is not None
            ok = ok and "corrected_formula" in par.discrepancy
        corrected.append(q)
    emit(capsys, 9, ok,
         f"q = 1 (mod 4) parametrizations verified as printed for q in "
         f"{printed}; q = 3 (mod 4) verified via corrected formulas with "
         f"discrepancy artifacts for q in {corrected}")


def test_criterion_10_puncturing_invariance(computed, capsys):
    rows, secs = both_ranks(computed)
    ok = True
    for q, name, design, setup, f, r2, rs in rows:
        punctured = rank2_of_unital(design, include_infinity=False)
        ok = ok and punctured == r2 == rs
    emit(capsys, 10, ok,
         "deleting the (inf) column leaves the GF(2) rank unchanged on all "
         "five instances, matching the spectrum count")

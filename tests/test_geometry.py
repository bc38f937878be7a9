"""Unital construction, plane axioms, incidence verifications, file round trips."""
import hashlib
import math
import re

import numpy as np
import pytest

from shiftunital import (DesignError, FieldError, VerificationError, base_blocks,
                         build_unital, construct_theta, coulter_matthews_spec, do_spec,
                         find_thetas, is_normal, quadratic_character, read_design,
                         registry_list, spectrum_size, square_spec,
                         theta_setup, verify_design, verify_ovals, verify_plane,
                         verify_transitivity, verify_unital_in_plane, write_design)
from shiftunital import fields, geometry, make_field, make_tower, planarity_witness
from shiftunital.fields import FieldCtx, prime_power
from shiftunital.geometry import _cover_exactly_once, beta_of_table, circles_of, fiber_map
from shiftunital.gf2rank import rank2_by_characters

from oracles import (ShiftPlane, _verify_plane_small, circles_by_scan, difference_counts,
                     difference_family_fault, members, theta_multiples, unembed)
from paper_checks import circle, parametrize_circle
from test_planar import cube_spec, shifted_square_spec

FANO = np.array([[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5],
                 [1, 4, 6], [2, 3, 6], [2, 4, 5]])


def test_cover_helper_accepts_fano():
    _cover_exactly_once(FANO, 7, 3)


def test_cover_helper_rejects_broken_designs():
    broken = FANO.copy()
    broken[6] = [2, 4, 6]
    with pytest.raises(VerificationError):
        _cover_exactly_once(broken, 7, 3)
    with pytest.raises(VerificationError):
        _cover_exactly_once(FANO, 6, 3)
    with pytest.raises(VerificationError):
        _cover_exactly_once(FANO, 7, 2)


@pytest.mark.parametrize("q,expected", [(3, 4), (5, 12), (9, 40)])
def test_find_thetas_counts(towers, q, expected):
    tower = towers[q]
    f = square_spec(tower.ext)
    setups = find_thetas(f, tower)
    assert len(setups) == expected
    # for f = x^2 admissibility is exactly eta(theta^(q+1)) = -1
    ext, base = tower.ext, tower.base
    for s in setups:
        norm = int(unembed(tower)[ext.pow(s.theta, q + 1)])
        assert quadratic_character(base, norm) == -1


def _scan_thetas(f, tower) -> list[int]:
    """Every theta of GF(q^2)* whose fiber counts are 1 at 0 and q + 1 elsewhere."""
    q = tower.base.n
    want = [1] + [q + 1] * (q - 1)
    return [th for th in range(1, tower.ext.n)
            if np.bincount(beta_of_table(theta_setup(tower, th))[f.table],
                           minlength=q).tolist() == want]


@pytest.mark.parametrize("p,m,sel", [(3, 1, "square"), (5, 1, "square"), (7, 1, "square"),
                                     (3, 2, "square"), (3, 2, "cm:3"), (3, 3, "cm:5"),
                                     (3, 1, "shifted"), (5, 1, "shifted")])
def test_find_thetas_matches_per_theta_scan(p, m, sel):
    tower = make_tower(make_field(p, m))
    if sel == "square":
        f = square_spec(tower.ext)
    elif sel == "shifted":
        f = shifted_square_spec(tower.ext)
    else:
        f = coulter_matthews_spec(tower.ext, int(sel[3:]))
    setups = find_thetas(f, tower)
    assert [s.theta for s in setups] == _scan_thetas(f, tower)
    assert setups == [theta_setup(tower, s.theta) for s in setups]
    assert (setups == []) == (sel == "shifted")


def test_find_thetas_cm3(tower9):
    from shiftunital import coulter_matthews_spec
    f = coulter_matthews_spec(tower9.ext, 3)
    assert len(find_thetas(f, tower9)) == 40


def test_fiber_condition(tower3):
    f = square_spec(tower3.ext)
    good = find_thetas(f, tower3)
    fm = fiber_map(good[0], f)
    counts = np.bincount(fm, minlength=tower3.base.n)
    assert sorted(counts.tolist()) == [1] + [4] * 2
    assert fm.shape == (tower3.ext.n,)
    # every inadmissible nonzero theta must be rejected with a witness
    good_idx = {s.theta for s in good}
    for theta in range(1, tower3.ext.n):
        if theta in good_idx:
            continue
        with pytest.raises(DesignError):
            fiber_map(theta_setup(tower3, theta), f)


def test_build_rejects_inadmissible_theta(tower3, tower5):
    for tower in (tower3, tower5):
        f = square_spec(tower.ext)
        good = {s.theta for s in find_thetas(f, tower)}
        bad = next(t for t in range(1, tower.ext.n) if t not in good)
        with pytest.raises(DesignError):
            build_unital(f, theta_setup(tower, bad))


def test_design_parameters(instances):
    for (q, name), (tower, f, setup, design) in instances.items():
        assert design.q == q
        assert design.n_points == q**3 + 1
        assert design.n_blocks == (q**3 + 1) * q**3 // ((q + 1) * q)
        assert design.blocks.shape == (design.n_blocks, q + 1)
        assert not design.blocks.flags.writeable
        rep = verify_design(design)
        assert rep["lambda"] == 1 and rep["k"] == q + 1 and rep["r"] == q * q


def test_blocks_sorted_unique(design3, design9):
    for design in (design3, design9):
        assert np.all(design.blocks[:, 1:] > design.blocks[:, :-1])


def test_ba_blocks_contain_infinity(design3):
    q = design3.q
    ba = design3.blocks[:q * q]
    assert np.all(ba[:, -1] == design3.inf_id)


AXIOMS_EXHAUSTIVE = {"axiom_pairs": "exhaustive", "axiom_meets": "exhaustive",
                     "axiom_shifts": "exhaustive"}


def test_verify_plane_exhaustive(tower3, tower9, tower27):
    rep = verify_plane(square_spec(tower3.ext))
    assert rep["ok"] and rep["order"] == 9
    for tower in (tower9, tower27):
        rep = verify_plane(square_spec(tower.ext))
        assert rep["ok"] and rep["order"] == tower.ext.n
        assert {k: rep[k] for k in AXIOMS_EXHAUSTIVE} == AXIOMS_EXHAUSTIVE


def test_verify_plane_rejects_nonplanar(tower3):
    with pytest.raises(DesignError):
        verify_plane(cube_spec(tower3.ext))


def test_verify_plane_shifted_square(tower3):
    rep = verify_plane(shifted_square_spec(tower3.ext))
    assert rep["ok"]


def test_verify_plane_rejects_broken_addition(tower9):
    # one wrong digit-wise sum, 3 + 2, in a fresh copy of GF(81): D_1 stays a
    # bijection and every x + (-x) is still 0, but the shift by u = 1 no longer
    # maps L_{a,b} onto L_{a-u,b}
    ext = tower9.ext
    broken = FieldCtx(ext.p, ext.m, ext.modulus)
    broken._add_tbl[3, 2] = broken._add_tbl[3, 3]
    f = square_spec(broken)
    assert planarity_witness(f) is None
    idx = np.arange(broken.n)
    assert not broken.vadd(idx, broken.neg_table).any()
    a = idx[:, None]
    shifted = f.table[broken.vadd(broken.vadd(idx, 1)[None, :], broken.vsub(a, 1))]
    assert not np.array_equal(shifted, f.table[broken.vadd(a, idx[None, :])])
    with pytest.raises(VerificationError, match="shift map"):
        verify_plane(f)


def test_verify_plane_rejects_broken_negation(tower3):
    # one wrong negative in a fresh copy of GF(9): a - u no longer undoes + u
    ext = tower3.ext
    broken = FieldCtx(ext.p, ext.m, ext.modulus)
    broken.neg_table[3] = 0
    f = square_spec(broken)
    assert planarity_witness(f) is None
    with pytest.raises(VerificationError):
        _verify_plane_small(ShiftPlane(f))
    with pytest.raises(VerificationError, match="shift map"):
        verify_plane(f)


def test_verify_plane_agrees_with_pair_by_pair_oracle(tower3, tower5):
    for tower in (tower3, tower5):
        for f in (square_spec(tower.ext), shifted_square_spec(tower.ext)):
            rep = verify_plane(f)
            assert _verify_plane_small(ShiftPlane(f)) == AXIOMS_EXHAUSTIVE
            assert {k: rep[k] for k in AXIOMS_EXHAUSTIVE} == AXIOMS_EXHAUSTIVE
        with pytest.raises(DesignError):
            verify_plane(cube_spec(tower.ext))
        with pytest.raises(VerificationError):
            _verify_plane_small(ShiftPlane(cube_spec(tower.ext)))


def unital_meets_by_a(design, f):
    """Tangents, secants and tangents per point, counted for every line L_{a,b}."""
    setup = design.setup
    ext = setup.tower.ext
    q, n = design.q, ext.n
    thetas = theta_multiples(setup)
    idx = np.arange(n, dtype=np.int64)
    tangents, secants = 1, n
    hits = np.zeros(design.n_points, dtype=np.int64)
    hits[design.inf_id] = 1
    for a in range(n):
        bvals = ext.vsub(f.table[ext.vadd(idx, a)].astype(np.int64)[:, None], thetas[None, :])
        cnt = np.bincount(bvals.ravel(), minlength=n)
        assert np.all((cnt == 1) | (cnt == q + 1))
        tangents += int((cnt == 1).sum())
        secants += int((cnt == q + 1).sum())
        np.add.at(hits, (idx[:, None] * q + np.arange(q)[None, :])[cnt[bvals] == 1], 1)
    per_point = set(hits.tolist())
    return tangents, secants, per_point.pop() if len(per_point) == 1 else per_point


def max_oval_meet_by_a(design, f, setup):
    ext = setup.tower.ext
    n = ext.n
    thetas = theta_multiples(setup)
    idx = np.arange(n, dtype=np.int64)
    worst = 0
    for a in range(n):
        fxa = f.table[ext.vadd(idx, a)].astype(np.int64)
        for t in range(design.q):
            worst = max(worst, int(np.bincount(ext.vsub(fxa, int(thetas[t])),
                                               minlength=n).max()))
    return worst


def test_unital_in_plane(instances):
    for (q, name), (tower, f, setup, design) in instances.items():
        rep = verify_unital_in_plane(f, setup)
        assert rep["ok"]
        assert rep["tangents"] == q**3 + 1
        assert rep["secants"] == rep["lines"] - rep["tangents"]
        assert rep["tangents_per_point"] == 1
        assert unital_meets_by_a(design, f) == (rep["tangents"], rep["secants"], 1)


def test_unital_in_plane_q27(tower27):
    f = square_spec(tower27.ext)
    rep = verify_unital_in_plane(f, construct_theta(tower27))
    assert rep["tangents"] == 27**3 + 1
    assert rep["tangents_per_point"] == 1


def test_unital_in_plane_rejects_a_table_off_the_design(setup9, square9):
    # f moved at one point: some line L_{0,b} now meets U in neither 1 nor q+1 points
    tbl = square9.table.copy()
    tbl[5] = square9.field.add(int(tbl[5]), 1)
    with pytest.raises(VerificationError, match="meets the unital"):
        verify_unital_in_plane(square9._replace(table=tbl), setup9)
    # f translated by delta with beta(delta) != 0: g shifts by beta(delta), so every
    # line still meets U in 1 or q+1 points, but the tangents are the b with beta(b) = beta(delta)
    delta = int(np.flatnonzero(beta_of_table(setup9))[0])
    tbl = square9.field.vadd(square9.table, delta)
    with pytest.raises(VerificationError, match="tangency does not align"):
        verify_unital_in_plane(square9._replace(table=tbl), setup9)


def test_ovals(instances):
    for (q, name), (tower, f, setup, design) in instances.items():
        rep = verify_ovals(f, setup)
        assert rep["ok"]
        assert rep["ovals"] == q
        assert rep["oval_size"] == q * q + 1
        assert rep["max_affine_line_meet"] == max_oval_meet_by_a(design, f, setup) == 2


def test_ovals_reject_non_normal(tower3, setup3):
    f = shifted_square_spec(tower3.ext)
    with pytest.raises(DesignError):
        verify_ovals(f, setup3)


def test_transitivity(instances, tower27):
    setups = [(f, setup) for tower, f, setup, design in instances.values()]
    setups.append((square_spec(tower27.ext), construct_theta(tower27)))
    for f, setup in setups:
        q = setup.tower.base.n
        rep = verify_transitivity(base_blocks(f, setup))
        assert rep == {"group_order": q**3, "regular": True,
                       "blocks_closed": "exhaustive", "ok": True}


def test_transitivity_rejects_planted_translate(instances):
    # D_2 or the last base block replaced by D_1 + (1, 0): the two blocks then
    # lie in one G-orbit, and the development repeats a block. verify_transitivity
    # rests on the exact cover, which such arrays fail: the least wrong code may be
    # a repeat or a missing difference, so the count is not matched
    for (q, name), (tower, f, setup, design) in instances.items():
        for target in (1, q - 2):
            blocks = base_blocks(f, setup)
            x, t = blocks.x.copy(), blocks.t.copy()
            x[target] = tower.ext.vadd(x[0], 1)
            t[target] = t[0]
            with pytest.raises(VerificationError, match="arises"):
                check_family(setup, x, t)


# sha256 of build_unital(...).blocks.tobytes(); the q=27 square theta=636 array
# (not run here) has digest 591e3dddb79b5732b7a91d249750f33ec84c0612e2227f4fca2f8a0346a0245a
BLOCK_DIGESTS = {
    "q3-square-t8": (3, 1, "square", 8,
                     "6fc431d794181175d5ea1056cc38c408eb1f14e7598e13544c968a3bb0d89fd4"),
    "q9-square-t32": (3, 2, "square", 32,
                      "ea360bcfc6e3d29970ebf9064afc39d28be359abb3797b02b8fd1081855346c7"),
    "q9-cm3-t3": (3, 2, "cm3", 3,
                  "e87b58d9e4bd8705e92420e971ca361242534bdf6838d5ba15ca8eca5cbbaa94"),
}


@pytest.mark.parametrize("instance", BLOCK_DIGESTS)
def test_block_array_is_pinned(towers, instance):
    p, m, f_name, theta, digest = BLOCK_DIGESTS[instance]
    tower = towers[p**m]
    f = square_spec(tower.ext) if f_name == "square" else coulter_matthews_spec(tower.ext, 3)
    design = build_unital(f, theta_setup(tower, theta))
    assert hashlib.sha256(design.blocks.tobytes()).hexdigest() == digest


def check_family(setup, x, t):
    """What base_blocks runs on x, t: the exact-cover check through their multiplier group."""
    geometry._check_difference_family(setup, x, t, geometry._multiplier(setup, x, t))


def test_base_blocks_develop_to_the_design(instances):
    for (q, name), (tower, f, setup, design) in instances.items():
        blocks = base_blocks(f, setup)
        x, t = blocks.x, blocks.t
        assert x.shape == t.shape == (q - 1, q + 1)
        assert sorted(x.ravel().tolist()) == list(range(1, q * q))
        # every translate of D_beta by G is a block of U
        rows = {tuple(r) for r in design.blocks[q * q:].tolist()}
        ext, base = tower.ext, tower.base
        for u in (0, 1, q * q - 1):
            for s in (0, q - 1):
                for xs, ts in zip(x, t):
                    pids = ext.vadd(xs, u).astype(np.int64) * q + base.vadd(ts, s)
                    assert tuple(sorted(pids.tolist())) in rows


def test_base_blocks_cannot_be_edited_under_their_certificate(instances):
    # size, d and rows certify these very arrays: an edit in place must fail
    tower, f, setup, design = instances[9, "square"]
    blocks = base_blocks(f, setup)
    for a in (blocks.x, blocks.t):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0
    with pytest.raises(AttributeError):
        blocks.t = blocks.t.copy()


def swap_one_point(monkeypatch, b1=1, b2=2):
    """Make circles_of swap one point between C_{0,b1} and C_{0,b2}."""
    real = geometry.circles_of

    def swapped(*args):
        circles = real(*args).copy()
        circles[[b1 - 1, b2 - 1], 0] = circles[[b2 - 1, b1 - 1], 0]
        circles[[b1 - 1, b2 - 1]] = np.sort(circles[[b1 - 1, b2 - 1]], axis=1)
        return circles

    monkeypatch.setattr(geometry, "circles_of", swapped)


def test_build_rejects_broken_difference_family(setup9, square9, monkeypatch):
    swap_one_point(monkeypatch)
    with pytest.raises(VerificationError, match="difference"):
        base_blocks(square9, setup9)
    with pytest.raises(VerificationError, match="difference"):
        build_unital(square9, setup9)


# Moving one point of D_1 loses the differences it made with the other points
# and makes new ones. Moving (1, 0) to (1, 1) loses (1, 0), the least bad code;
# moving (27, 6) to (27, 0) repeats (11, 3) before it loses anything smaller.
LEAST_BAD = [
    (0, 1, "difference (1, 0) arises 0 times in the base blocks, expected 1"),
    (4, 0, "difference (11, 3) arises 2 times in the base blocks, expected 1")]


@pytest.mark.parametrize("k, t_new, message", LEAST_BAD, ids=["missing", "repeated"])
def test_difference_family_names_least_bad_difference(setup9, square9, k, t_new, message):
    blocks = base_blocks(square9, setup9)
    x, t = blocks.x, blocks.t.copy()
    assert [(int(x[0, j]), int(t[0, j])) for j in (0, 4)] == [(1, 0), (27, 6)]
    t[0, k] = t_new
    assert geometry._multiplier(setup9, x, t)[0] == 1     # one block edited: M = {1}
    with pytest.raises(VerificationError) as err:
        check_family(setup9, x, t)
    assert str(err.value) == message


def test_difference_family_names_a_repeated_x(setup9, square9):
    # (1, 0) and (1, 1) in D_1: their differences (0, +-1) lie below q
    blocks = base_blocks(square9, setup9)
    x, t = blocks.x.copy(), blocks.t.copy()
    x[0, 1], t[0, 1] = x[0, 0], 1
    assert geometry._multiplier(setup9, x, t)[0] == 1
    with pytest.raises(VerificationError) as err:
        check_family(setup9, x, t)
    assert str(err.value) == ("difference (0, 1) arises 1 times in the base blocks, "
                              "expected 0")


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2)])
@pytest.mark.parametrize("budget", [None, 1, 4096])
def test_difference_family_agrees_with_unique_counts(p, m, budget, monkeypatch):
    # planted perturbations: 1 to 3 coordinates of random points moved at random
    tower = make_tower(make_field(p, m))
    f = square_spec(tower.ext)
    setup = construct_theta(tower)
    blocks = base_blocks(f, setup)
    x, t = blocks.x, blocks.t
    q = tower.base.n
    if budget is not None:
        monkeypatch.setattr(fields, "_WORK_BYTES", budget)
    rng = np.random.default_rng(q)
    faults = set()
    for trial in range(40):
        xs, ts = x.copy(), t.copy()
        for _ in range(1 + trial % 3):
            b, j = rng.integers(q - 1), rng.integers(q + 1)
            if rng.integers(2):
                xs[b, j] = rng.integers(q * q)
            else:
                ts[b, j] = rng.integers(q)
        want = difference_family_fault(setup, xs, ts)
        assert want is None or geometry._multiplier(setup, xs, ts)[0] == 1
        try:
            check_family(setup, xs, ts)
            got = None
        except VerificationError as exc:
            got = str(exc)
        assert got == want, (trial, xs[xs != x], ts[ts != t])
        faults.add(want)
    assert difference_family_fault(setup, x, t) is None
    assert len(faults) > 10


ODD_Q_UP_TO_81 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53,
                  59, 61, 67, 71, 73, 79, 81]


@pytest.mark.parametrize("q", ODD_Q_UP_TO_81)
def test_every_registry_f_takes_the_full_multiplier_group(q):
    # M = {1} gives the same answers, so a broken certificate would hide behind it:
    # f(cx) = c^d f(x) with d = 2 (square) or (3^k + 1)/2 (cm:k) for c in GF(q)*.
    # The circles, one sort of the fiber map, are those of one scan per beta
    tower = make_tower(make_field(*prime_power(q)))
    for f in registry_list(tower.ext):
        d_f = 2 if f.family == "square" else (3**f.param + 1) // 2
        setups = find_thetas(f, tower)
        for setup in (setups[0], setups[-1]):
            blocks = base_blocks(f, setup)
            assert np.array_equal(blocks.x, circles_by_scan(setup, f)), (f.name, setup.theta)
            assert (blocks.size, blocks.d) == (q - 1, d_f % (q - 1)), (f.name, setup.theta)
            assert blocks.rows.size == math.gcd(blocks.d, q - 1)


def test_a_table_without_the_symmetry_takes_the_trivial_group(tower9):
    # f = L(x)^2 with L(x) = x + a x^3 is planar and normal, but no d gives
    # f(w x) = w^d f(x) for the generator w of GF(9)*: M = {1}, and both engines
    # still give q^3 - q + 1, the spectrum from every u-slice, and the same count
    # and rank for each (u, w)
    ext = tower9.ext
    a = 3
    f = do_spec(ext, [(0, 0, 1), (0, 1, ext.mul(2, a)), (1, 1, ext.mul(a, a))])
    assert is_normal(f)
    w = int(tower9.embed[tower9.base.omega])
    scaled = f.table[ext.vmul(w, np.arange(ext.n))]
    assert not any(np.array_equal(scaled, ext.vmul(ext.pow(w, d), f.table)) for d in range(8))
    setup = find_thetas(f, tower9)[0]
    blocks = base_blocks(f, setup)
    assert blocks.size == 1 and blocks.rows.tolist() == list(range(8))
    res = spectrum_size(setup, f)
    assert len(res.slices) == 9 and res.size == 721
    total, ranks = rank2_by_characters(blocks)
    assert total == 721
    assert ranks.tolist() == res.counts.tolist() == members(res).sum(axis=1).tolist()


def plant_on_block_orbit(setup, x, t, d, j, point):
    """Blocks with point j of D_1 moved to point = (x', t'), and so every phi_c-image.

    The edited block set is M-invariant, so the certificate still holds.
    """
    tower = setup.tower
    base, ext = tower.base, tower.ext
    q = base.n
    x, t = x.copy(), t.copy()
    moves = []
    for c in base.exp.tolist():
        b, k = np.argwhere(x == ext.mul(int(tower.embed[c]), int(x[0, j])))[0]
        moves.append((b, k, ext.mul(int(tower.embed[c]), point[0]),
                      base.mul(base.pow(c, d), point[1])))
    for b, k, xb, tb in moves:
        x[b, k], t[b, k] = xb, tb
    order = np.argsort(x * q + t, axis=1)
    return np.take_along_axis(x, order, axis=1), np.take_along_axis(t, order, axis=1)


@pytest.mark.parametrize("onto_x", [False, True], ids=["moved_t", "repeated_x"])
def test_difference_family_rejects_a_fault_on_a_whole_block_orbit(instances, onto_x):
    # moving the t of one point (or its x onto another point's x) of D_1 and of all
    # its phi_c-images keeps the blocks M-invariant: only the orbit sums can fail.
    # The named difference is a representative of its M-orbit, not always the
    # oracle's least code, so its count is matched against the oracle's table
    # (at q = 3 the moved orbit gives another exact cover)
    pattern = r"difference \((\d+), (\d+)\) arises (\d+) times in the base blocks, expected (\d)"
    for (q, name), (tower, f, setup, design) in instances.items():
        if q == 3:
            continue
        blocks = base_blocks(f, setup)
        x, t, d = blocks.x, blocks.t, blocks.d
        # a point of D_1 outside the M-orbit of point 1, whose x the fault repeats
        ratios = tower.ext.vmul(x[0], tower.ext.inv(int(x[0, 1])))
        new_x = int(x[0, np.argmax(unembed(tower)[ratios] < 0)]) if onto_x else int(x[0, 1])
        xs, ts = plant_on_block_orbit(setup, x, t, d, 1, (new_x, (int(t[0, 1]) + 1) % q))
        assert geometry._multiplier(setup, xs, ts)[:2] == (q - 1, d)
        with pytest.raises(VerificationError) as err:
            check_family(setup, xs, ts)
        gx, gt, n, want = map(int, re.fullmatch(pattern, str(err.value)).groups())
        assert n == difference_counts(setup, xs, ts)[gx * q + gt], (q, name)
        assert n != want == int(gx != 0)
        assert (gx == 0) == onto_x


def test_shifted_square_has_no_admissible_theta(tower3, tower5):
    # adding a linear term moves the singleton fiber of g off zero, so no
    # direction passes; the plane still exists but this normalization does not
    for tower in (tower3, tower5):
        f = shifted_square_spec(tower.ext)
        assert find_thetas(f, tower) == []


def test_circles(setup3, square3, tower3):
    circ = circles_of(setup3, square3)
    q = tower3.base.n
    assert len(circ) == q - 1
    seen = set()
    g = fiber_map(setup3, square3)
    for beta, pts in enumerate(circ, start=1):
        assert np.all(g[pts] == beta)
        assert pts.size == q + 1
        seen.update(int(x) for x in pts)
    assert len(seen) == (q - 1) * (q + 1)
    assert 0 not in seen
    c = circle(setup3, square3, 0, 1)
    assert np.array_equal(np.sort(np.asarray(c.points)), circ[0])
    # C_{a,beta} = {x : g(x + a) = beta} is the translate of C_{0,beta} by -a
    c2 = circle(setup3, square3, 5, 1)
    want = np.sort(tower3.ext.vsub(np.asarray(c.points), 5))
    assert np.array_equal(np.sort(np.asarray(c2.points)), want)


def test_beta_tables(setup9):
    q = setup9.tower.base.n
    bt = beta_of_table(setup9)
    tower = setup9.tower
    base = tower.base
    for b in range(0, tower.ext.n, 5):
        b0, b1 = tower.decompose(b)
        want = base.sub(base.mul(b0, setup9.theta1), base.mul(b1, setup9.theta0))
        assert bt[b] == want
    tm = theta_multiples(setup9)
    assert tm.shape == (q,)
    for t in range(q):
        assert tm[t] == tower.ext.mul(int(tower.embed[t]), setup9.theta)


@pytest.mark.parametrize("q", [5, 9])
def test_parametrize_circle_case1(towers, q):
    setup = construct_theta(towers[q])
    for beta in (1, setup.tower.alpha):
        par = parametrize_circle(setup, 1, beta)
        assert par.source == "printed"
        assert par.discrepancy is None
        assert len(par.points) == q + 1


@pytest.mark.parametrize("p", [3, 7, 11])
def test_parametrize_circle_case3(request, p):
    tower = request.getfixturevalue({3: "tower3", 7: "tower7", 11: "tower11"}[p])
    setup = construct_theta(tower)
    for beta in (1, setup.tower.alpha):
        par = parametrize_circle(setup, 3, beta)
        assert par.source == "corrected"
        assert par.discrepancy is not None
        assert par.discrepancy["printed_only"] or par.discrepancy["enumerated_only"]
        assert "corrected_formula" in par.discrepancy
        assert len(par.points) == p + 1


def test_parametrize_circle_case_mismatch(tower3, tower5):
    with pytest.raises(FieldError):
        parametrize_circle(construct_theta(tower3), 1, 1)
    with pytest.raises(FieldError):
        parametrize_circle(construct_theta(tower5), 3, 1)
    with pytest.raises(FieldError):
        parametrize_circle(construct_theta(tower5), 1, 3)


def test_write_read_roundtrip(tmp_path, design3):
    path = tmp_path / "design.txt"
    write_design(design3, str(path))
    first = path.read_bytes()
    write_design(design3, str(path))
    assert path.read_bytes() == first
    loaded = read_design(str(path))
    assert loaded.q == design3.q
    assert loaded.f_name == design3.f_name
    assert loaded.theta_index == design3.theta_index
    assert np.array_equal(loaded.blocks, design3.blocks)
    assert loaded.setup is None


def test_read_design_rejects_garbage(tmp_path, design3):
    path = tmp_path / "d.txt"
    path.write_text("not a design\n")
    with pytest.raises(DesignError):
        read_design(str(path))
    write_design(design3, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DesignError):
        read_design(str(path))
    path.write_text("\n".join(lines).replace("points=28", "points=29", 1))
    with pytest.raises(DesignError):
        read_design(str(path))
    body = lines[3:]
    for bad in (["UNITAL v1"],                                           # header only
                [*lines[:3], *body[:-1], body[-1] + " 5"],               # ragged body
                [*lines[:3], *body[:-1], body[-1].replace(" ", " x", 1)],  # non-integer
                [*lines[:3], body[0], "", *body[1:]],                    # blank line
                [*lines, body[-1]],                                      # a row past blocks=
                [*lines, "garbage here"],                                # text past them
                [lines[0], lines[1].replace("q=3 ", ""), *lines[2:]],    # no q=
                [lines[0], lines[1].replace("q=3 ", "q=three "), *lines[2:]],
                *([*lines[:3], *body[:-1], f"{v} " + body[-1].split(" ", 1)[1]]
                  for v in (99999, 30000, 28, -1))):                   # ids outside 0..27
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(DesignError):
            read_design(str(path))
    path.write_bytes(b"UNITAL v1\n\xff\xfe bad\n")                          # not UTF-8
    with pytest.raises(DesignError):
        read_design(str(path))

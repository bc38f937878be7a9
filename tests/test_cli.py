"""End-to-end command-line driver behavior in throwaway directories."""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shiftunital
from shiftunital import charspec, cli, geometry, gf2rank, planar
from shiftunital.cli import main, resolve_config, resolve_engines, RunConfig
from shiftunital.errors import FieldError

ROW_KEYS = ["q", "p", "m", "modulus", "f", "theta_index", "rank_gf2",
            "rank_spectrum", "upper_bound", "lx_bound", "corollary_bound",
            "conjecture_match", "wall_ms"]
# cache key: p, m, base and extension moduli, f name, theta index
KEY_Q3 = "p3m1_b1,1_e2,1,1_fsquare_t8"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("UNITAL_CACHE_DIR", raising=False)
    return tmp_path


def test_rank_q3(workdir, capsys):
    assert main(["rank", "--p", "3", "--m", "1"]) == 0
    doc = json.loads((workdir / "out" / "rank_q3_square.json").read_text())
    row = doc["rows"][0]
    assert list(row) == ROW_KEYS
    assert row["rank_gf2"] == row["rank_spectrum"] == 25
    assert row["upper_bound"] == 25 and row["lx_bound"] == 17
    assert row["corollary_bound"] == 25
    assert row["conjecture_match"] is True
    head = capsys.readouterr().out.splitlines()[0]
    assert head.startswith("# ") and "modulus=2,1,1" in head and "xi=" in head


def test_rank_warm_cache_byte_identical(workdir):
    assert main(["rank", "--p", "3", "--m", "1"]) == 0
    path = workdir / "out" / "rank_q3_square.json"
    first = path.read_bytes()
    assert main(["rank", "--p", "3", "--m", "1"]) == 0
    assert path.read_bytes() == first
    assert (workdir / "cache" / KEY_Q3 / "result.json").exists()


def test_rank_engine_selection(workdir):
    assert main(["rank", "--p", "3", "--m", "1", "--engine", "gf2"]) == 0
    row = json.loads((workdir / "out" / "rank_q3_square.json").read_text())["rows"][0]
    assert row["rank_gf2"] == 25 and row["rank_spectrum"] is None
    assert main(["rank", "--p", "3", "--m", "1", "--engine", "spectrum"]) == 0
    row = json.loads((workdir / "out" / "rank_q3_square.json").read_text())["rows"][0]
    assert row["rank_spectrum"] == 25 and row["rank_gf2"] == 25     # kept from the cache


def test_cached_rank_survives_the_other_engine(workdir, monkeypatch):
    result_path = workdir / "cache" / "p3m2_b2,1,1_e2,0,0,1,1_fsquare_t32" / "result.json"
    assert main(["rank", "--p", "3", "--m", "2", "--engine", "gf2"]) == 0
    assert json.loads(result_path.read_text())["rank_gf2"] == 721
    calls = _count_spectrum_calls(monkeypatch)
    assert main(["spectrum", "--p", "3", "--m", "2"]) == 0
    row = json.loads(result_path.read_text())
    assert (row["rank_gf2"], row["rank_spectrum"]) == (721, 721)
    assert len(calls) == 1
    # both ranks are cached now: neither engine runs again
    monkeypatch.setattr(gf2rank, "rank2_by_characters",
                        lambda *a: pytest.fail("gf2 ran again"))
    assert main(["rank", "--p", "3", "--m", "2", "--engine", "both"]) == 0
    out = json.loads((workdir / "out" / "rank_q9_square.json").read_text())["rows"][0]
    assert out == row
    assert len(calls) == 1


@pytest.mark.parametrize("first, argv", [
    ("gf2", ["spectrum", "--p", "5", "--m", "1"]),
    ("gf2", ["rank", "--p", "5", "--m", "1", "--engine", "both"]),
    ("both", ["rank", "--p", "5", "--m", "1", "--engine", "gf2"])],
    ids=["spectrum", "both", "cached-both"])
def test_planted_cached_rank_is_checked_against_the_other_engine(workdir, capsys, first,
                                                                 argv):
    # 120 lies inside the proven window [89, 121] at q = 5 and conjecture_match
    # follows it, so the row check serves it and only the other engine can catch it
    assert main(["rank", "--p", "5", "--m", "1", "--engine", first]) == 0
    result_path = next((workdir / "cache").glob("p5m1_*/result.json"))
    row = json.loads(result_path.read_text())
    match = row["rank_spectrum"] == 121
    result_path.write_text(json.dumps({**row, "rank_gf2": 120, "conjecture_match": match}))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: engine disagreement")


def test_corrupted_cache_rebuilt(workdir, capsys):
    assert main(["rank", "--p", "3", "--m", "1"]) == 0
    result_path = workdir / "cache" / KEY_Q3 / "result.json"
    good = json.loads(result_path.read_text())
    other_modulus = {**good, "modulus": "2,2,1", "rank_gf2": 1}
    for corrupt in ("garbage\n", "3\n", json.dumps(other_modulus) + "\n"):
        result_path.write_text(corrupt)
        capsys.readouterr()
        assert main(["rank", "--p", "3", "--m", "1"]) == 0
        printed = json.loads(capsys.readouterr().out.splitlines()[1])
        rewritten = json.loads(result_path.read_text())
        assert rewritten == printed
        assert {k: rewritten[k] for k in ROW_KEYS if k != "wall_ms"} == \
            {k: good[k] for k in ROW_KEYS if k != "wall_ms"}


def test_cached_row_nested_too_deep_is_recomputed(workdir, capsys):
    # json.load raises RecursionError on deep nesting: the entry is unreadable, so
    # the row is recomputed and rewritten like any other bad row
    assert main(["rank", "--p", "3", "--m", "1"]) == 0
    result_path = workdir / "cache" / KEY_Q3 / "result.json"
    good = json.loads(result_path.read_text())
    result_path.write_text("[" * 200000 + "]" * 200000)
    capsys.readouterr()
    assert main(["rank", "--p", "3", "--m", "1"]) == 0
    printed = json.loads(capsys.readouterr().out.splitlines()[1])
    rewritten = json.loads(result_path.read_text())
    assert rewritten == printed
    assert {k: rewritten[k] for k in ROW_KEYS if k != "wall_ms"} == \
        {k: good[k] for k in ROW_KEYS if k != "wall_ms"}


@pytest.mark.parametrize("first, forged, argv", [
    ("spectrum", "rank_spectrum", ["spectrum", "--p", "3", "--m", "2"]),
    ("spectrum", "rank_spectrum", ["report", "--q", "9", "--engine", "spectrum"]),
    ("gf2", "rank_gf2", ["report", "--q", "9", "--engine", "gf2"])],
    ids=["spectrum", "report", "report-gf2"])
def test_cached_rank_must_equal_the_spectrum_evaluated_beside_it(workdir, capsys, first,
                                                                 forged, argv):
    # 720 lies inside the proven window at q = 9 and conjecture_match follows it, so
    # the row check serves it; the spectrum that spectrum evaluates for its bitmap,
    # or report for its criterion check, counts 721 and refuses the row
    assert main(["rank", "--p", "3", "--m", "2", "--engine", first]) == 0
    result_path = workdir / "cache" / "p3m2_b2,1,1_e2,0,0,1,1_fsquare_t32" / "result.json"
    row = json.loads(result_path.read_text())
    result_path.write_text(json.dumps({**row, forged: 720, "conjecture_match": False}))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: cache disagreement at q = 9, f = square: rank 720 in "
        f"{os.path.join('cache', result_path.parent.name, 'result.json')} != spectrum 721\n")
    assert not (workdir / "out" / "spectrum_q9_square.json").exists()


@pytest.mark.parametrize("engine, planted", [
    ("spectrum", {"rank_spectrum": 5}),                        # below the window
    ("spectrum", {"rank_spectrum": 26}),                       # above it
    ("spectrum", {"rank_spectrum": 25.0}),                     # not an int
    ("spectrum", {"rank_spectrum": "25"}),
    ("spectrum", {"rank_spectrum": True}),
    ("both", {"rank_gf2": None, "rank_spectrum": None}),
    ("both", {"lx_bound": 18}),
    ("both", {"upper_bound": 26}),
    ("both", {"corollary_bound": None}),
    ("both", {"conjecture_match": False}),
    ("both", {"conjecture_match": 1}),
    ("both", {"q": 3.0})],
    ids=["low", "high", "float", "str", "bool", "no-rank", "lx", "upper", "corollary",
         "match", "match-int", "q-float"])
def test_cached_row_failing_the_row_check_is_recomputed(workdir, capsys, engine, planted):
    # a cached row passes the check a computed one does: each rank an int or
    # null within the proven bounds, and bound fields and conjecture_match those
    # of bounds(q, p, m) and the ranks; else it is recomputed and rewritten
    assert main(["rank", "--p", "3", "--m", "1", "--engine", engine]) == 0
    result_path = workdir / "cache" / KEY_Q3 / "result.json"
    good = json.loads(result_path.read_text())
    result_path.write_text(json.dumps({**good, **planted}))
    capsys.readouterr()
    assert main(["rank", "--p", "3", "--m", "1", "--engine", engine]) == 0
    printed = json.loads(capsys.readouterr().out.splitlines()[1])
    rewritten = json.loads(result_path.read_text())
    assert rewritten == printed
    # as JSON text, so 25.0 or 1 where 25 or true belongs also differ
    assert json.dumps({k: rewritten[k] for k in ROW_KEYS if k != "wall_ms"}) == \
        json.dumps({k: good[k] for k in ROW_KEYS if k != "wall_ms"})


def test_computed_row_outside_the_bounds_is_an_error(workdir, capsys, monkeypatch):
    monkeypatch.setattr(gf2rank, "rank2_by_characters", lambda *a: (24, None))
    assert main(["rank", "--p", "3", "--m", "1", "--engine", "gf2"]) == 1
    assert capsys.readouterr().err == "error: rank 24 outside the proven bounds at q = 3\n"
    assert not (workdir / "cache" / KEY_Q3 / "result.json").exists()


def test_engines_compared_per_character(workdir, capsys, monkeypatch):
    # equal totals do not hide a component that disagrees: gf2 ranks with two
    # (u, w) entries traded are caught and the first bad (u, w) is named
    real = gf2rank.rank2_by_characters

    def traded(*args):
        total, ranks = real(*args)
        ranks = ranks.copy()
        ranks[0, 2], ranks[1, 2] = ranks[1, 2], ranks[0, 2]
        return total, ranks
    monkeypatch.setattr(gf2rank, "rank2_by_characters", traded)
    assert main(["rank", "--p", "3", "--m", "1", "--engine", "both"]) == 1
    assert capsys.readouterr().err == (
        "error: engine disagreement at q = 3, f = square, (u, w) = (0, 2): "
        "gf2 rank 3 != spectrum count 2\n")


def test_verify_ok(workdir, capsys):
    assert main(["verify", "--p", "3", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "plane axioms: ok" in out
    assert "design 2-(28,4,1): ok" in out


# sha256 of verify's stdout, recorded when verify still checked transitivity on
# the developed block array; q = 81 when verify_plane still checked each shift
# generator on all n^2 pairs
VERIFY_DIGESTS = {
    "--p 3 --m 1": "29e41921161fc5bed0f2166e151aa3f5828c6e250e9278285e850b6c34fa0a20",
    "--p 3 --m 2": "bc18d2f70a130233dd31fcaf15d3c7b9f42b1c9df66394e3b94c3acf94667365",
    "--p 3 --m 3": "0896b2c024390a202d46c86e00e795e510d932d7917cfaee43692504453276cf",
    "--p 3 --m 4": "e89246b472b4a93752258b683615d8178c53e6043dbd4839195cf077c0d0beab",
    "--p 5 --m 1": "9d8ff2b45aba334d4daeef266d61a6ac98dac329e68a2a6fb7c8c65a38445b44",
    "--p 3 --m 2 --f cm:3":
        "be26a359aa1261d66cee6777b9df8f6c48b5d5d7e10cc5fbcbfee98618521569",
}


@pytest.mark.parametrize("args", VERIFY_DIGESTS)
def test_verify_stdout_pinned(workdir, capsys, args):
    assert main(["verify", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[args]


def test_verify_header_names_theta(workdir, capsys):
    # auto picks theta = 8 at q = 3; theta = 3 checks another unital
    outs = []
    for extra in ([], ["--theta", "3"]):
        assert main(["verify", "--p", "3", "--m", "1", *extra]) == 0
        outs.append(capsys.readouterr().out)
    heads = [out.splitlines()[0] for out in outs]
    assert heads[0].endswith(" theta_index=8 theta0=1 theta1=1")
    assert heads[1].endswith(" theta_index=3 theta0=1 theta1=2")
    assert outs[0] != outs[1]


@pytest.mark.parametrize("m", ["1", "2"])
def test_verify_builds_no_blocks(workdir, capsys, monkeypatch, m):
    monkeypatch.setattr(geometry, "build_unital", _refuse_blocks)
    assert main(["verify", "--p", "3", "--m", m]) == 0
    q = 3**int(m)
    checks = [line.partition(": ok")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert checks == ["planarity", "plane axioms", f"design 2-({q**3 + 1},{q + 1},1)",
                      "lines meet unital in 1 or q+1", "oval decomposition",
                      "point-regular shift action"]


def test_verify_rejects_bad_table(workdir, capsys):
    (workdir / "bad.do").write_text("0 0 0\n0 1 0\n1 0 0\n1 1 0\n")
    assert main(["verify", "--p", "3", "--m", "1", "--f", "user:bad.do"]) == 1
    err = capsys.readouterr().err
    assert "not planar" in err and "a = " in err


def test_user_table_without_the_symmetry_runs_every_layer(workdir, capsys, tower9):
    # f = L(x)^2, L(x) = x + a x^3, a = index 3: planar and normal, and its base
    # blocks take M = {1} (test_a_table_without_the_symmetry_takes_the_trivial_group)
    ext = tower9.ext
    a = 3
    (workdir / "lsq.do").write_text(f"0 0 1\n0 1 {ext.mul(2, a)}\n1 1 {ext.mul(a, a)}\n")
    argv = ["--p", "3", "--m", "2", "--f", "user:lsq.do"]
    assert main(["verify", *argv]) == 0
    checks = [line.partition(": ok")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert checks == ["planarity", "plane axioms", "design 2-(730,10,1)",
                      "lines meet unital in 1 or q+1", "oval decomposition",
                      "point-regular shift action"]
    assert main(["rank", *argv, "--engine", "both"]) == 0
    row = json.loads(capsys.readouterr().out.splitlines()[1])
    assert row["rank_gf2"] == row["rank_spectrum"] == 721


def test_find_theta(workdir, capsys):
    assert main(["find-theta", "--p", "3", "--m", "1"]) == 0
    doc = json.loads((workdir / "out" / "thetas_q3_square.json").read_text())
    assert doc["count"] == 4
    assert len(doc["thetas"]) == 4
    for row in doc["thetas"]:
        assert set(row) == {"theta_index", "theta0", "theta1"}


def test_spectrum_witness_csv(workdir):
    assert main(["spectrum", "--p", "3", "--m", "1"]) == 0
    doc = json.loads((workdir / "out" / "spectrum_q3_square.json").read_text())
    assert doc["rows"][0]["rank_spectrum"] == 25
    bitmap = int(doc["bitmap_hex"], 16)
    assert bin(bitmap).count("1") == 25
    lines = (workdir / "out" / "spectrum_witness_q3_square.csv").read_text().splitlines()
    assert lines[0] == "u,v,w,member,witness_beta"
    assert len(lines) == 1 + 27
    members = 0
    for line in lines[1:]:
        u, v, w, member, wit = line.split(",")
        members += int(member)
        if member == "1" and w == "0":
            assert wit == "0"
        if member == "0":
            assert wit == ""
    assert members == 25


# sha256 of the witness CSV (plain, --witness-all) and of bitmap_hex, recorded
# from the per-(u, v) full-scan engine that the u-slice engine replaced
SPECTRUM_DIGESTS = {
    (2, ""): "6a31ac1209916d7d09fc024cb34d0e624407b865fa2f9f87f3b73de5de5301f1",
    (2, "--witness-all"):
        "5357d78ec865a3089389914b92cf1cbfbe444a6c4384142ee9bda7491dc9f1d6",
    (2, "bitmap"): "f253dbd90f3a62b886f4f43f3f2777c9633f57948543eadf32d871cfcf21439e",
    (3, ""): "8c4321649d5a5d18f6cd5e812d0e9205f17d28f953a68ac3735671d703ffa3eb",
    (3, "--witness-all"):
        "5272121aa6e01843a3104f17c45d7eeb2caafc09fe06c8b5a8ed6323aed5f4bc",
    (3, "bitmap"): "a2ff0eb30c67cc45dd4d5c2a0a093d5ffdca893b070e51075f3a8129d68e2f74",
}


@pytest.mark.parametrize("m", [2, 3])
def test_spectrum_artifacts_pinned(workdir, m):
    q = 3**m
    for flag in ("", "--witness-all"):
        out = workdir / f"out{flag}"
        argv = ["spectrum", "--p", "3", "--m", str(m), "--out-dir", str(out),
                "--cache-dir", str(workdir / f"cache{flag}")]
        assert main(argv + ([flag] if flag else [])) == 0
        csv = (out / f"spectrum_witness_q{q}_square.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == SPECTRUM_DIGESTS[m, flag]
        doc = json.loads((out / f"spectrum_q{q}_square.json").read_text())
        digest = hashlib.sha256(doc["bitmap_hex"].encode()).hexdigest()
        assert digest == SPECTRUM_DIGESTS[m, "bitmap"]


# the same for f = L(x)^2, L(x) = x + a x^3 at q = 9, whose base blocks take M = {1}
# (test_user_table_without_the_symmetry_runs_every_layer), recorded from the
# engine that kept a q^3 array of the lowest certifying betas
USER_TABLE_DIGESTS = {
    "": "86e04b3a99e79292294d161e13300a0050dcc6aab4e6465ecec79230f568f654",
    "--witness-all": "d37ac2b820b187c150696fa1d97d3271b0139ffbd22fa95a9df4a57aebbc4e6b",
    "bitmap": "f253dbd90f3a62b886f4f43f3f2777c9633f57948543eadf32d871cfcf21439e",
}


@pytest.mark.parametrize("flag", ["", "--witness-all"], ids=["plain", "witness-all"])
def test_user_table_spectrum_artifacts_pinned(workdir, tower9, flag):
    ext = tower9.ext
    a = 3
    (workdir / "lsq.do").write_text(f"0 0 1\n0 1 {ext.mul(2, a)}\n1 1 {ext.mul(a, a)}\n")
    argv = ["spectrum", "--p", "3", "--m", "2", "--f", "user:lsq.do"]
    assert main(argv + ([flag] if flag else [])) == 0
    out = workdir / "out"
    (csv,) = out.glob("spectrum_witness_q9_do-*.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == USER_TABLE_DIGESTS[flag]
    (doc,) = out.glob("spectrum_q9_do-*.json")
    digest = hashlib.sha256(json.loads(doc.read_text())["bitmap_hex"].encode()).hexdigest()
    assert digest == USER_TABLE_DIGESTS["bitmap"]


@pytest.mark.parametrize("flag", [[], ["--witness-all"]], ids=["plain", "witness-all"])
def test_witness_csv_must_agree_with_the_bitmap(workdir, capsys, monkeypatch, flag):
    # the CSV evaluates each u-slice afresh and the bitmap packs members_of(u): a
    # slice that differs in one character is an error, and no artifact is written
    real = charspec.SpectrumResult.members_of

    def flipped(self, u):
        out = real(self, u)
        out[1, 1] ^= u == 2
        return out

    monkeypatch.setattr(charspec.SpectrumResult, "members_of", flipped)
    assert main(["spectrum", "--p", "3", "--m", "1", *flag]) == 1
    assert capsys.readouterr().err == (
        "error: witness scan disagrees with the spectrum's members at q = 3, u = 2\n")
    assert not any((workdir / "out").iterdir())


def test_kloosterman_command(workdir, capsys):
    assert main(["kloosterman", "--p", "3", "--m", "1"]) == 0
    lines = (workdir / "out" / "kloosterman_p3m1.csv").read_text().splitlines()
    assert len(lines) == 2 + 3
    out = capsys.readouterr().out
    assert "class counts" in out


def test_report_q3(workdir, capsys):
    assert main(["report", "--q", "3"]) == 0
    doc = json.loads((workdir / "out" / "report.json").read_text())
    assert [list(r) for r in doc["rows"]] == [ROW_KEYS]
    assert doc["rows"][0]["conjecture_match"] is True
    assert doc["kloosterman_classes"] == [
        {"m": 1, "count_a": 1, "count_b": 0, "count_c": 1}]
    table = (workdir / "out" / "report.txt").read_text()
    assert table.splitlines()[0].split()[:3] == ["q", "p", "m"]
    first = (workdir / "out" / "report.json").read_bytes()
    assert main(["report", "--q", "3"]) == 0
    assert (workdir / "out" / "report.json").read_bytes() == first


def test_report_beyond_characteristic_13(workdir):
    assert main(["report", "--q", "17"]) == 0
    (row,) = json.loads((workdir / "out" / "report.json").read_text())["rows"]
    assert (row["q"], row["p"], row["m"]) == (17, 17, 1)
    assert row["rank_spectrum"] == row["upper_bound"] == 17**3 - 17 + 1


def test_report_rejects_non_prime_power(workdir, capsys):
    assert main(["report", "--q", "6"]) == 1
    assert "prime power" in capsys.readouterr().err


def test_report_without_admissible_theta_is_an_error(workdir, monkeypatch, capsys):
    # report picks theta like rank --theta auto: an f with none exits 1, no traceback
    from test_planar import shifted_square_spec
    monkeypatch.setattr(planar, "registry_list", lambda ext: [shifted_square_spec(ext)])
    assert main(["report", "--q", "5"]) == 1
    assert capsys.readouterr().err == "error: no admissible theta for f = square-shifted\n"


# report runs every registry f with theta = auto and the default moduli: a flag or a
# config entry that asks for anything else is an error, not silently dropped
@pytest.mark.parametrize("key,argv,entry", [
    ("theta", ["--theta", "8"], None),
    ("modulus", [], "modulus=2,1,1"),
    ("f", ["--f", "cm:3"], None),
])
def test_report_rejects_theta_modulus_and_f(workdir, capsys, key, argv, entry):
    if entry is not None:
        (workdir / "run.cfg").write_text(entry + "\n")
        argv = ["--config", "run.cfg"]
    assert main(["report", "--q", "3", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: report takes no {key} ")
    assert captured.out == ""
    assert not (workdir / "out").exists()


# every command refuses an option it does not read, as report does above, so a
# flag is never silently dropped; --out-dir and --cache-dir pass everywhere
@pytest.mark.parametrize("argv,key", [
    (["verify", "--p", "3", "--m", "1", "--engine", "gf2"], "engine"),
    (["find-theta", "--p", "3", "--m", "1", "--theta", "8"], "theta"),
    (["build", "--p", "3", "--m", "1", "--engine", "both"], "engine"),
    (["spectrum", "--p", "3", "--m", "1", "--engine", "gf2"], "engine"),
    (["kloosterman", "--p", "3", "--m", "2", "--modulus", "1,0,1"], "modulus"),
    (["kloosterman", "--p", "3", "--m", "2", "--f", "cm:3"], "f"),
    (["kloosterman", "--p", "3", "--m", "2", "--theta", "8"], "theta"),
    (["kloosterman", "--p", "3", "--m", "2", "--engine", "gf2"], "engine"),
    (["report", "--q", "3", "--p", "5"], "p"),
    (["report", "--q", "3,3"], "repeated q"),
], ids=["verify", "find-theta", "build", "spectrum", "kloosterman", "kloosterman-f",
        "kloosterman-theta", "kloosterman-engine", "report-p", "report-q"])
def test_command_refuses_options_it_does_not_read(workdir, capsys, argv, key):
    assert main([*argv, "--cache-dir", "c", "--out-dir", "o"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {argv[0]} takes no {key} ")
    assert captured.out == ""
    assert not (workdir / "o").exists() and not (workdir / "c").exists()


def test_spectrum_takes_the_spectrum_engine(workdir):
    assert main(["spectrum", "--p", "3", "--m", "1", "--engine", "spectrum"]) == 0


# the README's `command | refuses` table, verbatim; rank reads every option
README_REFUSES = """\
| command | refuses |
| --- | --- |
| `verify`, `build` | `engine` |
| `find-theta` | `theta`, `engine` |
| `spectrum` | `engine` other than `spectrum` |
| `kloosterman` | `modulus`, `f`, `theta`, `engine` |
| `report` | `p`, `m`, `modulus`, `f`, `theta`, and a `--q` list that repeats a `q` |
"""
# a valid value other than the default for every option
NON_DEFAULT = {"p": 5, "m": 2, "modulus": (2, 2, 1), "f": "cm:3", "theta": "8",
               "engine": "gf2", "out_dir": "o", "cache_dir": "c"}


def _refusal_table() -> dict[str, set[str]]:
    """command -> the options it refuses, read from README_REFUSES."""
    table = {"rank": set()}
    for row in README_REFUSES.splitlines()[2:]:
        commands, keys = row.strip("| ").split(" | ")
        for command in re.findall(r"`([a-z-]+)`", commands):
            table[command] = {k for k in re.findall(r"`([a-z_]+)`", keys) if k in NON_DEFAULT}
    return table


REFUSES = _refusal_table()


def test_refusal_table_is_the_readme_table():
    assert README_REFUSES in (Path(__file__).parents[1] / "README.md").read_text()
    assert set(REFUSES) == set(cli._COMMANDS)


def test_readme_library_example_runs(tmp_path):
    # README's one python block, in a fresh process, so the library text stays true
    text = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", text, re.S)
    src = os.path.dirname(os.path.dirname(shiftunital.__file__))
    subprocess.run([sys.executable, "-c", example], cwd=tmp_path,
                   env={**os.environ, "PYTHONPATH": src}, check=True)


def test_a_huge_cm_k_answers(workdir, capsys):
    # 3^k is never formed: k reads as k mod 2e (test_planar)
    assert main(["verify", "--p", "3", "--m", "1", "--f", "cm:99999999999999999999"]) == 0
    assert "cm99999999999999999999" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(REFUSES))
def test_refuse_unread_follows_the_refusal_table(command):
    # every option the command reads may be set at once
    cli.refuse_unread(command, RunConfig(**{k: v for k, v in NON_DEFAULT.items()
                                            if k not in REFUSES[command]}))
    for key in REFUSES[command]:
        with pytest.raises(FieldError, match=f"^{command} takes no {key} "):
            cli.refuse_unread(command, RunConfig(**{key: NON_DEFAULT[key]}))
    if command == "spectrum":
        cli.refuse_unread(command, RunConfig(engine="spectrum"))


# argument-parser usage errors take the same exit as every other bad input
@pytest.mark.parametrize("argv,name", [
    (["rank", "--bogus"], "--bogus"),
    (["report"], "--q"),
    ([], "command"),
    (["bogus"], "bogus"),
    (["rank", "--p"], "--p"),
], ids=["unknown-flag", "report-without-q", "no-command", "unknown-command",
        "flag-without-value"])
def test_usage_error_exits_with_error(workdir, capsys, argv, name):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1 and name in err
    assert not out


@pytest.mark.parametrize("argv", [["-h"], ["report", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: shiftunital")


def test_config_file_and_env(workdir, monkeypatch):
    (workdir / "run.cfg").write_text("p=3\nm=1\nout_dir=alt\n# comment\n")
    monkeypatch.setenv("UNITAL_CACHE_DIR", str(workdir / "envcache"))
    assert main(["rank", "--config", "run.cfg"]) == 0
    assert (workdir / "alt" / "rank_q3_square.json").exists()
    assert (workdir / "envcache" / KEY_Q3 / "result.json").exists()
    # explicit flags beat the file and the environment
    assert main(["rank", "--config", "run.cfg", "--out-dir", "out",
                 "--cache-dir", "c2"]) == 0
    assert (workdir / "out" / "rank_q3_square.json").exists()
    assert (workdir / "c2" / KEY_Q3 / "result.json").exists()


def test_config_file_rejects_unknown_key(workdir, capsys):
    (workdir / "run.cfg").write_text("qq=3\n")
    assert main(["rank", "--config", "run.cfg"]) == 1
    assert "bad entry" in capsys.readouterr().err


def test_config_file_rejects_full(workdir, capsys):
    # --engine both is the one way to run both engines above q = 9
    (workdir / "run.cfg").write_text("p=3\nm=1\nfull=1\n")
    assert main(["rank", "--config", "run.cfg"]) == 1
    assert capsys.readouterr().err.startswith("error: run.cfg:3: bad entry")


def test_explicit_theta_flag(workdir):
    assert main(["rank", "--p", "3", "--m", "1", "--theta", "5"]) in (0, 1)
    # theta index 8 is the recipe direction and must succeed
    assert main(["rank", "--p", "3", "--m", "1", "--theta", "8"]) == 0
    row = json.loads((workdir / "out" / "rank_q3_square.json").read_text())["rows"][0]
    assert row["theta_index"] == 8


def test_resolve_engines_defaults():
    cfg = RunConfig()
    assert resolve_engines(cfg, 9) == (True, True)
    assert resolve_engines(cfg, 11) == (False, True)
    assert resolve_engines(cfg, 27) == (False, True)
    assert resolve_engines(RunConfig(engine="gf2"), 27) == (True, False)


def test_modulus_override(workdir, capsys):
    # x^2 + x + 2 is the other primitive quadratic shape over GF(3) towers;
    # pass an explicit GF(9) extension modulus for the q = 3 tower
    assert main(["rank", "--p", "3", "--m", "1", "--modulus", "2,2,1"]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert "modulus=2,2,1" in head


def test_cache_key_includes_modulus(workdir, capsys):
    assert main(["rank", "--p", "3", "--m", "1"]) == 0
    capsys.readouterr()
    # theta index 8 is admissible under 2,1,1 but not under 2,2,1
    assert main(["rank", "--p", "3", "--m", "1", "--modulus", "2,2,1",
                 "--theta", "8"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert not any(line.startswith("{") for line in out.splitlines())


@pytest.mark.parametrize("argv,message", [
    (["rank", "--p", "3", "--m", "1", "--f", "cm:x"], "k in cm:k must be an integer"),
    (["rank", "--p", "3", "--m", "1", "--theta", "99"], "theta index 99"),
    (["rank", "--p", "3", "--m", "1", "--theta", "0"], "theta index 0"),
    (["rank", "--p", "3", "--m", "1", "--theta", "x"], "theta must be an integer"),
    (["rank", "--p", "3", "--m", "1", "--modulus", "2,x,1"], "modulus coefficient must be"),
    (["report", "--q", "3,x"], "q must be an integer"),
    (["report", "--q", "1"], "q = 1 is not a prime power"),
    (["rank", "--config", "binary.cfg"], "binary.cfg: not a text file"),
    (["verify", "--p", "3", "--m", "-1"], "extension degree must be positive"),
    (["verify", "--p", "x"], "p must be an integer"),
    (["rank", "--m", "x"], "m must be an integer"),
    (["rank", "--engine", "bogus"], "engine must be auto, gf2, spectrum or both"),
    (["rank", "--config", "engine.cfg"], "engine must be auto, gf2, spectrum or both"),
    (["report", "--q", "4"], "p must be an odd prime, got 2"),
    (["report", "--q", "3,2"], "p must be an odd prime, got 2"),
    (["verify", "--p", "3", "--m", "1", "--theta", "0"], "theta index 0"),
    (["verify", "--p", "3", "--m", "1", "--theta", "5"], "fiber condition fails"),
    (["rank", "--p", "3", "--m", "1", "--theta", "5"], "fiber condition fails"),
    (["verify", "--p", "1000003", "--m", "1"], "p must be at most 32767"),
    (["report", "--q", "32771"], "p must be at most 32767"),
    (["verify", "--p", "3", "--m", "40"], "field GF(3^40) exceeds the int32 indices"),
    (["kloosterman", "--p", "3", "--m", "40"], "field GF(3^40) exceeds the int32 indices"),
    (["kloosterman", "--p", "3", "--m", "20"], "field GF(3^20) exceeds the int32 indices"),
    (["verify", "--p", "3", "--m", "10"], "field GF(3^20) exceeds the int32 indices"),
    (["report", "--q", "3486784401"], "field GF(3^20) exceeds the int32 indices"),
    (["report", "--q", "3,59049"], "field GF(3^20) exceeds the int32 indices"),
], ids=["cm-suffix", "theta-range", "theta-zero", "theta-int", "modulus-int",
        "q-int", "q-one", "config-bytes", "m-negative", "p-flag-int", "m-flag-int",
        "engine-flag", "engine-config", "q-even", "q-list-even", "verify-theta-zero",
        "verify-theta-fiber", "rank-theta-fiber", "p-above-int16", "q-above-int16",
        "verify-m-40", "kloosterman-m-40", "kloosterman-above-int32", "verify-tower-above-int32",
        "report-q-above-int32", "report-q2-above-int32"])
def test_bad_input_exits_with_error(workdir, capsys, argv, message):
    (workdir / "binary.cfg").write_bytes(b"p=3\xff\n")
    (workdir / "engine.cfg").write_text("p=3\nm=1\nengine=bogus\n")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and message in err
    assert not out


def test_memory_error_exits_with_error(workdir, capsys, monkeypatch):
    # verify --p 32749 --m 1 asks numpy for 8 GB of tower tables; a refused
    # allocation is one error line, not a traceback (simulated: nothing is allocated)
    def refused(cfg):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(cli, "make_context", refused)
    assert main(["verify", "--p", "32749", "--m", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == "error: Unable to allocate 8.00 GiB for an array\n" and not out


def _refuse_blocks(*args, **kwargs):
    raise AssertionError("build_unital called")


def test_spectrum_only_runs_build_no_blocks(workdir, monkeypatch):
    monkeypatch.setattr(geometry, "build_unital", _refuse_blocks)
    assert main(["rank", "--p", "3", "--m", "1", "--engine", "spectrum"]) == 0
    assert main(["spectrum", "--p", "3", "--m", "1", "--cache-dir", "fresh"]) == 0


@pytest.mark.parametrize("argv", [["rank", "--p", "3", "--m", "2", "--engine", "gf2"],
                                  ["report", "--q", "3,5"]])
def test_gf2_runs_build_no_blocks(workdir, monkeypatch, argv):
    monkeypatch.setattr(geometry, "build_unital", _refuse_blocks)
    assert main(argv) == 0
    name = "rank_q9_square.json" if argv[0] == "rank" else "report.json"
    rows = json.loads((workdir / "out" / name).read_text())["rows"]
    assert [r["rank_gf2"] for r in rows] == [r["upper_bound"] for r in rows]


def _count_spectrum_calls(monkeypatch) -> list:
    calls = []
    real = charspec.spectrum_size

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(charspec, "spectrum_size", counted)
    return calls


def test_spectrum_evaluates_once(workdir, monkeypatch):
    monkeypatch.setattr(geometry, "build_unital", _refuse_blocks)
    calls = _count_spectrum_calls(monkeypatch)
    assert main(["spectrum", "--p", "3", "--m", "1"]) == 0
    assert len(calls) == 1
    row = json.loads((workdir / "out" / "spectrum_q3_square.json").read_text())["rows"][0]
    assert row["rank_spectrum"] == 25
    # a warm run serves the row from the cache and evaluates only for the bitmap
    assert main(["spectrum", "--p", "3", "--m", "1"]) == 0
    assert len(calls) == 2


def test_report_evaluates_spectrum_once_per_row(workdir, monkeypatch):
    # the q = 9 square row's criterion cross-check reuses the row's spectrum
    calls = _count_spectrum_calls(monkeypatch)
    assert main(["report", "--q", "9"]) == 0
    rows = json.loads((workdir / "out" / "report.json").read_text())["rows"]
    assert len(calls) == len(rows)
    del calls[:]
    assert main(["report", "--q", "9"]) == 0
    assert len(calls) == 1


def test_both_engines_check_the_base_blocks_once(workdir, monkeypatch):
    # one base_blocks value, with its multiplier group, serves both engines; the
    # wrappers only count calls and return what the real functions return
    calls = []
    for name in ("_multiplier", "_check_difference_family"):
        real = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert main(["rank", "--p", "3", "--m", "2", "--engine", "both"]) == 0
    assert calls == ["_multiplier", "_check_difference_family"]


def test_verify_checks_the_difference_family_once(workdir, monkeypatch):
    # the shift-regularity line rests on the exact cover that base_blocks checked
    calls = []
    real = geometry._check_difference_family

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_check_difference_family", counted)
    assert main(["verify", "--p", "3", "--m", "2"]) == 0
    assert len(calls) == 1


def test_only_build_writes_design_files(workdir):
    for argv in (["verify"], ["find-theta"], ["rank"], ["spectrum"], ["kloosterman"]):
        assert main([*argv, "--p", "3", "--m", "1"]) == 0
    assert main(["report", "--q", "3"]) == 0

    def designs():
        return [p for p in workdir.rglob("*")
                if p.is_file() and p.read_bytes().startswith(b"UNITAL v1")]
    assert designs() == []
    assert main(["build", "--p", "3", "--m", "1"]) == 0
    (path,) = designs()
    assert path.parent == workdir / "out"
    design = geometry.read_design(str(path))
    assert geometry.verify_design(design)["mode"] == "exhaustive"


_IMPORT_GUARD = """
import sys
from shiftunital.cli import main
for argv in (["verify", "--p", "3", "--m", "2"],
             ["rank", "--p", "5", "--m", "1", "--engine", "both"],
             ["spectrum", "--p", "3", "--m", "2"], ["report", "--q", "3,5"],
             ["kloosterman", "--p", "3", "--m", "4"]):
    assert main(argv) == 0, argv
print([name for name in ("numpy.ma", "numpy.random") if name in sys.modules])
"""


def test_commands_import_neither_numpy_ma_nor_numpy_random(workdir):
    # each command is a fresh process, and these two imports cost 14-30 ms apiece
    src = os.path.dirname(os.path.dirname(shiftunital.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], cwd=workdir, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


_CLOCK_PROBE = """
import sys, types
from shiftunital import cli
engines = ("shiftunital.charspec", "shiftunital.gf2rank")
loaded = []
cli.time = types.SimpleNamespace(
    monotonic=lambda: loaded.append([m for m in engines if m in sys.modules]) or 0.0)
assert cli.main(["rank", "--p", "3", "--m", "1", "--engine", "both"]) == 0
print(loaded[0])
"""


def test_wall_ms_starts_after_the_engine_imports(workdir):
    # a fresh process: the row's clock starts once both engines are loaded, so
    # wall_ms counts no import
    src = os.path.dirname(os.path.dirname(shiftunital.__file__))
    done = subprocess.run([sys.executable, "-c", _CLOCK_PROBE], cwd=workdir,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "['shiftunital.charspec', 'shiftunital.gf2rank']"

"""Command-line driver: verify, find-theta, build, rank, spectrum, kloosterman, report."""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .fields import (ThetaSetup, TowerCtx, _atomic_write_chunks, _check_degree,
                     construct_theta, make_field, make_tower, prime_power, theta_setup)
from .errors import DesignError, FieldError, VerificationError

import numpy as np

if TYPE_CHECKING:
    from . import planar
    from .charspec import SpectrumResult


class RunConfig:
    """The options of one run; a keyword names an option, the class holds the defaults."""

    p: int = 3
    m: int = 1
    modulus: tuple[int, ...] | None = None   # extension-field modulus override
    f: str = "square"
    theta: str = "auto"
    engine: str = "auto"                     # gf2 | spectrum | both | auto
    out_dir: str = "out"
    cache_dir: str = "cache"

    def __init__(self, **options):
        unknown = options.keys() - _CONFIG_KEYS.keys()
        if unknown:
            raise TypeError(f"RunConfig takes no option {sorted(unknown)[0]!r}")
        self.__dict__.update(options)


def refuse_unread(command: str, cfg: RunConfig) -> None:
    """FieldError if a flag or config entry sets an option that command does not read."""
    fixed = RunConfig()
    reads = _COMMANDS[command][1].split() + ["out_dir", "cache_dir"]
    for key in (k for k in _CONFIG_KEYS if k not in reads):
        val = getattr(cfg, key)
        # set means not the default; spectrum also takes engine = spectrum
        if val != getattr(fixed, key) and (command, val) != ("spectrum", "spectrum"):
            raise FieldError(f"{command} takes no {key} (got {val!r})")


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FieldError(f"{what} must be an integer, got {text!r}") from None


def _parse_modulus(text: str, what: str) -> tuple[int, ...]:
    return tuple(_parse_int(c, f"{what} coefficient") for c in text.split(","))


_ENGINES = {"gf2": (True, False), "spectrum": (False, True), "both": (True, True)}


def _parse_engine(text: str, what: str) -> str:
    if text != "auto" and text not in _ENGINES:
        raise FieldError(f"{what} must be auto, gf2, spectrum or both, got {text!r}")
    return text


def _text(text: str, what: str) -> str:
    return text


# option -> parser(text, option name), for flags and config-file entries alike
_CONFIG_KEYS = {"p": _parse_int, "m": _parse_int, "modulus": _parse_modulus, "f": _text,
                "theta": _text, "engine": _parse_engine, "out_dir": _text, "cache_dir": _text}


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FieldError(f"{path}: not a text file ({exc.reason})") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file entries over environment defaults."""
    cfg = RunConfig()
    if os.environ.get("UNITAL_CACHE_DIR"):
        cfg.cache_dir = os.environ["UNITAL_CACHE_DIR"]
    if getattr(args, "config", None):
        for lineno, raw in enumerate(_read_text(args.config).splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise FieldError(f"{args.config}:{lineno}: bad entry {raw!r}")
            setattr(cfg, key, _CONFIG_KEYS[key](val.strip(), key))
    for key, parse in _CONFIG_KEYS.items():
        if getattr(args, key, None) is not None:
            setattr(cfg, key, parse(getattr(args, key), key))
    return cfg


def make_context(cfg: RunConfig) -> TowerCtx:
    base = make_field(cfg.p, cfg.m)
    return make_tower(base, ext_modulus=cfg.modulus)


def resolve_f(cfg: RunConfig, tower: TowerCtx) -> planar.PlanarSpec:
    from . import planar
    sel = cfg.f
    if sel == "square":
        return planar.square_spec(tower.ext)
    if sel.startswith("cm:"):
        spec = planar.coulter_matthews_spec(tower.ext, _parse_int(sel[3:], "k in cm:k"))
        w = planar.planarity_witness(spec)
        if w is not None:
            raise DesignError(f"{sel} is not planar (witness a = {w})")
        return spec
    if sel.startswith("user:"):
        return planar.do_spec(tower.ext, planar.parse_do_table(_read_text(sel[5:])))
    raise FieldError(f"unknown planar selector {sel!r} (square | cm:k | user:path)")


def resolve_theta(cfg: RunConfig, f: planar.PlanarSpec, tower: TowerCtx) -> ThetaSetup:
    from . import geometry
    if cfg.theta == "auto":
        if f.family == "square":
            return construct_theta(tower)
        setups = geometry.find_thetas(f, tower)
        if not setups:
            raise DesignError(f"no admissible theta for f = {f.name}")
        return setups[0]
    setup = theta_setup(tower, _parse_int(cfg.theta, "theta"))
    geometry.fiber_map(setup, f)            # DesignError unless theta is admissible
    return setup


def resolve_engines(cfg: RunConfig, q: int) -> tuple[bool, bool]:
    """(run_gf2, run_spectrum); auto runs both for q <= 9, else the spectrum alone."""
    if cfg.engine == "auto":
        return _ENGINES["both" if q <= 9 else "spectrum"]
    return _ENGINES[cfg.engine]


def _joined(coeffs: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in coeffs)


def config_header(cfg: RunConfig, tower: TowerCtx, f: planar.PlanarSpec,
                  setup: ThetaSetup | None) -> dict:
    head = {"p": cfg.p, "m": cfg.m, "q": tower.base.n,
            "base_modulus": _joined(tower.base.modulus),
            "modulus": _joined(tower.ext.modulus),
            "xi": tower.xi, "alpha": tower.alpha,
            "engine": cfg.engine, "cache_dir": cfg.cache_dir, "out_dir": cfg.out_dir,
            "f": f.name}
    if setup is not None:
        head.update({"theta_index": setup.theta, "theta0": setup.theta0,
                     "theta1": setup.theta1})
    return head


def _print_header(head: dict) -> None:
    print("# " + " ".join(f"{k}={v}" for k, v in head.items()))


def _atomic_write(path: str, text: str) -> None:
    _atomic_write_chunks(path, (text,))


def _write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


_ROW_KEYS = ("q", "p", "m", "modulus", "f", "theta_index", "rank_gf2",
             "rank_spectrum", "upper_bound", "lx_bound", "corollary_bound",
             "conjecture_match", "wall_ms")


def _same(a, b) -> bool:
    return a == b and type(a) is type(b)


def _bound_fields(q: int, p: int, m: int, rank: int | None) -> dict:
    from .charspec import bounds
    b = bounds(q, p, m)
    return {"upper_bound": b["upper"], "lx_bound": b["leung_xiang"],
            "corollary_bound": b["corollary"], "conjecture_match": rank == b["upper"]}


def _row_fault(row: dict) -> str | None:
    """Why row is not a result row, or None; computed and cached rows alike.

    Each rank is an int or null, not both null, and within the proven bounds;
    the bound fields and conjecture_match are those its q, p, m and ranks give.
    """
    ranks = [row["rank_gf2"], row["rank_spectrum"]]
    if ranks == [None, None] or any(r is not None and type(r) is not int for r in ranks):
        return f"ranks {ranks} are not ints"
    rank = ranks[1] if ranks[1] is not None else ranks[0]
    want = _bound_fields(row["q"], row["p"], row["m"], rank)
    bad = next((k for k, v in want.items() if not _same(row[k], v)), None)
    if bad is not None:
        return f"{bad} {row[bad]!r} is not {want[bad]!r}"
    low = max(want["lx_bound"], want["corollary_bound"] or 0)
    bad = next((r for r in ranks if r is not None and not low <= r <= want["upper_bound"]),
               None)
    if bad is not None:
        return f"rank {bad} outside the proven bounds at q = {row['q']}"
    return None


def _cached_row(path: str, config: dict) -> dict | None:
    """The row stored at path if it is for this configuration and passes _row_fault."""
    try:
        with open(path) as fh:
            row = json.load(fh)
    except (ValueError, OSError, RecursionError):
        return None
    if (not isinstance(row, dict) or any(k not in row for k in _ROW_KEYS)
            or not all(_same(row[k], v) for k, v in config.items())
            or type(row["wall_ms"]) is not int or _row_fault(row)):
        return None
    return {k: row[k] for k in _ROW_KEYS}


def _cache_entry(cfg: RunConfig, tower: TowerCtx, f: planar.PlanarSpec,
                 setup: ThetaSetup) -> tuple[dict, str]:
    """The configuration fields of the row and the path of its cached result.json."""
    mod = _joined(tower.ext.modulus)
    config = {"q": tower.base.n, "p": cfg.p, "m": cfg.m, "modulus": mod, "f": f.name,
              "theta_index": setup.theta}
    key = f"p{cfg.p}m{cfg.m}_b{_joined(tower.base.modulus)}_e{mod}_f{f.name}_t{setup.theta}"
    return config, os.path.join(cfg.cache_dir, key, "result.json")


def compute_row(cfg: RunConfig, tower: TowerCtx, f: planar.PlanarSpec, setup: ThetaSetup,
                run_gf2: bool, run_spectrum: bool) -> tuple[dict, SpectrumResult | None]:
    """One report row, served from the result cache when it matches the configuration.

    An engine runs only when its rank is requested and not already in the cached
    row; a cached rank is kept, also when this call does not request it, and two
    ranks in the row must agree, cached or not. When both engines run here, the
    gf2 rank of each (u, w) component must also equal the spectrum's member count
    over v. Cached and computed rows pass the same _row_fault check: a cached row
    that fails it is recomputed, a computed one is an error. Also returns the
    spectrum_size result if this call evaluated it (None otherwise), so a caller
    that needs it evaluates it at most once. Both engines read the checked base
    blocks, built once per row; neither builds the block array.
    """
    q = tower.base.n
    config, result_path = _cache_entry(cfg, tower, f, setup)
    cached = _cached_row(result_path, config)
    stored = cached or {"rank_gf2": None, "rank_spectrum": None, "wall_ms": 0}
    rank_gf2, rank_spec = stored["rank_gf2"], stored["rank_spectrum"]
    run_gf2 = run_gf2 and rank_gf2 is None
    run_spectrum = run_spectrum and rank_spec is None

    if run_gf2:                 # imported before t0: wall_ms counts the compute only
        from .geometry import base_blocks
        from .gf2rank import rank2_by_characters
    if run_spectrum:
        from .charspec import spectrum_size
    t0 = time.monotonic()
    spectrum = blocks = None
    if run_gf2:
        blocks = base_blocks(f, setup)
        rank_gf2, by_character = rank2_by_characters(blocks)
    if run_spectrum:
        spectrum = spectrum_size(setup, f, blocks=blocks)
        rank_spec = spectrum.size
    if run_gf2 and run_spectrum:
        counts = spectrum.counts
        bad = np.argwhere(by_character != counts)
        if bad.size:
            u, w = bad[0].tolist()
            raise VerificationError(
                f"engine disagreement at q = {q}, f = {f.name}, (u, w) = ({u}, {w}): "
                f"gf2 rank {by_character[u, w]} != spectrum count {counts[u, w]}")
    if rank_gf2 is not None and rank_spec is not None and rank_gf2 != rank_spec:
        raise VerificationError(
            f"engine disagreement at q = {q}, f = {f.name}: "
            f"gf2 {rank_gf2} != spectrum {rank_spec}")
    if not (run_gf2 or run_spectrum):
        return cached, None
    wall_ms = stored["wall_ms"] + int((time.monotonic() - t0) * 1000)
    rank = rank_spec if rank_spec is not None else rank_gf2
    row = {**config, "rank_gf2": rank_gf2, "rank_spectrum": rank_spec,
           **_bound_fields(q, cfg.p, cfg.m, rank), "wall_ms": wall_ms}
    fault = _row_fault(row)
    if fault:
        raise VerificationError(fault)
    _write_json(result_path, row)
    return row, spectrum


def _spectrum_of(row: dict, spectrum: SpectrumResult | None, cfg: RunConfig,
                 tower: TowerCtx, f: planar.PlanarSpec, setup: ThetaSetup) -> SpectrumResult:
    """spectrum, else evaluated here; then each rank in row must equal its size."""
    if spectrum is None:
        from .charspec import spectrum_size
        spectrum = spectrum_size(setup, f)
        for rank in (row["rank_gf2"], row["rank_spectrum"]):
            if rank not in (None, spectrum.size):
                raise VerificationError(
                    f"cache disagreement at q = {tower.base.n}, f = {f.name}: rank {rank} in "
                    f"{_cache_entry(cfg, tower, f, setup)[1]} != spectrum {spectrum.size}")
    return spectrum


def _instance(cfg: RunConfig, with_theta: bool = True) -> tuple:
    """(tower, f, setup, head) of cfg, setup None unless with_theta; prints the header last."""
    tower = make_context(cfg)
    f = resolve_f(cfg, tower)
    setup = resolve_theta(cfg, f, tower) if with_theta else None
    head = config_header(cfg, tower, f, setup)
    _print_header(head)
    return tower, f, setup, head


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import geometry, planar
    tower, f, setup, _ = _instance(cfg)
    rep = geometry.verify_plane(f)          # DesignError unless f is planar
    normal = planar.is_normal(f)
    print(f"planarity: ok  normality: {'ok' if normal else 'no (allowed)'}")
    print(f"plane axioms: ok {rep}")
    blocks = geometry.base_blocks(f, setup)  # VerificationError unless a difference family
    q = tower.base.n
    print(f"design 2-({q**3 + 1},{q + 1},1): ok")
    rep = geometry.verify_unital_in_plane(f, setup)
    print(f"lines meet unital in 1 or q+1: ok {rep}")
    if normal:
        rep = geometry.verify_ovals(f, setup)
        print(f"oval decomposition: ok {rep}")
    rep = geometry.verify_transitivity(blocks)
    print(f"point-regular shift action: ok {rep}")
    return 0


def cmd_find_theta(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import geometry
    tower, f, _, head = _instance(cfg, with_theta=False)
    setups = geometry.find_thetas(f, tower)
    rows = [{"theta_index": s.theta, "theta0": s.theta0, "theta1": s.theta1}
            for s in setups]
    doc = {"config": head, "count": len(rows), "thetas": rows}
    path = os.path.join(cfg.out_dir, f"thetas_q{tower.base.n}_{f.name}.json")
    _write_json(path, doc)
    print(f"{len(rows)} admissible theta values -> {path}")
    return 0


def cmd_build(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import geometry
    _, f, setup, _ = _instance(cfg)
    design = geometry.build_unital(f, setup)
    path = os.path.join(cfg.out_dir, f"design_q{design.q}_{f.name}_t{setup.theta}.txt")
    geometry.write_design(design, path)
    print(f"2-({design.n_points},{design.q + 1},1) design, "
          f"{design.n_blocks} blocks -> {path}")
    return 0


def cmd_rank(cfg: RunConfig, args: argparse.Namespace) -> int:
    tower, f, setup, head = _instance(cfg)
    q = tower.base.n
    row, _ = compute_row(cfg, tower, f, setup, *resolve_engines(cfg, q))
    doc = {"config": head, "rows": [row]}
    path = os.path.join(cfg.out_dir, f"rank_q{q}_{f.name}.json")
    _write_json(path, doc)
    print(json.dumps(row))
    print(f"-> {path}")
    return 0


def _witness_csv(result: SpectrumResult, witness_all: bool):
    """The witness CSV, one u-slice of q^2 lines per chunk, each evaluated here: an error
    where its membership (w != 0) is not members_of(u), which the bitmap packs."""
    q = result.q
    vw = [f"{v},{w}," for v in range(q) for w in range(q)]
    tail = [f"1,{b}\n" for b in range(q)] + ["0,\n"]      # by lowest beta; q: no member
    yield "u,v,w,member,witness_beta\n"
    for u in range(q):
        member = result.members_of(u)
        if witness_all:
            sets = result.certifying_sets(u)
            low = np.array([s[:1] or (0,) for s in sets]).reshape(q, q)   # lowest betas
        else:
            low = result.lowest_of(u)
        if not np.array_equal(low[:, 1:] > 0, member[:, 1:]):
            raise VerificationError(
                f"witness scan disagrees with the spectrum's members at q = {q}, u = {u}")
        tails = [tail[c] for c in np.where(member, low, q).ravel().tolist()]
        if witness_all:
            tails = [f"1,{';'.join(map(str, s))}\n" if s else t for s, t in zip(sets, tails)]
        head = f"{u},"
        yield head + head.join(map(str.__add__, vw, tails))


def cmd_spectrum(cfg: RunConfig, args: argparse.Namespace) -> int:
    tower, f, setup, head = _instance(cfg)
    q = tower.base.n
    row, result = compute_row(cfg, tower, f, setup, False, True)
    result = _spectrum_of(row, result, cfg, tower, f, setup)
    csv_path = os.path.join(cfg.out_dir, f"spectrum_witness_q{q}_{f.name}.csv")
    _atomic_write_chunks(csv_path, _witness_csv(result, args.witness_all))
    path = os.path.join(cfg.out_dir, f"spectrum_q{q}_{f.name}.json")
    _write_json(path, {"config": head, "rows": [row], "bitmap_hex": format(result.bitmap, "x")})
    print(f"spectrum size {result.size} -> {path}, {csv_path}")
    return 0


def cmd_kloosterman(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .kloosterman import count_classes, kloosterman_table, make_atlas
    fld = make_field(cfg.p, cfg.m)
    head = {"p": cfg.p, "m": cfg.m, "q": fld.n, "modulus": _joined(fld.modulus)}
    _print_header(head)
    table = kloosterman_table(fld)
    path = os.path.join(cfg.out_dir, f"kloosterman_p{cfg.p}m{cfg.m}.csv")
    _atomic_write_chunks(path, make_atlas(table))
    if cfg.p == 3:
        counts = count_classes(table)
        print(f"{fld.n} rows, class counts {counts} -> {path}")
    else:
        print(f"{fld.n} rows (no p = {cfg.p} classification) -> {path}")
    return 0


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import planar
    from .kloosterman import count_classes, criterion_grid, kloosterman_table
    q_list = [_parse_int(s, "q") for s in args.q.split(",")]
    if len(set(q_list)) != len(q_list):
        raise FieldError(f"report takes no repeated q (got {','.join(map(str, q_list))})")
    powers = [prime_power(q) for q in q_list]      # every q resolves before any output
    for p, m in powers:
        _check_degree(p, 2 * m)                    # and its tower GF(q^2)
    _print_header({"q_list": ",".join(str(q) for q in q_list), "engine": cfg.engine,
                   "cache_dir": cfg.cache_dir, "out_dir": cfg.out_dir})
    rows = []
    criterion_checks = []
    kloo = []
    for q, (p, m) in zip(q_list, powers):
        sub = RunConfig(**{**cfg.__dict__, "p": p, "m": m})
        tower = make_context(sub)
        table = kloosterman_table(tower.base) if p == 3 else None
        for f in planar.registry_list(tower.ext):
            setup = resolve_theta(sub, f, tower)
            row, res = compute_row(sub, tower, f, setup, *resolve_engines(sub, q))
            rows.append(row)
            if p == 3 and f.family == "square" and q >= 9:
                res = _spectrum_of(row, res, sub, tower, f, setup)
                met = criterion_grid(setup, table)[:, 1:, 1:]
                members = np.stack([[res.members_of(u)[0, 1:] for u in range(1, q)],
                                    res.members_of(0)[1:, 1:]])
                bad = int(np.count_nonzero(met & ~members))
                if bad:
                    raise VerificationError(f"criterion counterexamples at q = {q}: {bad}")
                criterion_checks.append({"q": q, "checked": met.size,
                                         "met": int(np.count_nonzero(met)),
                                         "counterexamples": 0})
        if p == 3:
            kloo.append({"m": m, **count_classes(table)})
    doc = {"config": {"q_list": q_list, "engine": cfg.engine,
                      "cache_dir": cfg.cache_dir},
           "rows": rows, "criterion_checks": criterion_checks,
           "kloosterman_classes": kloo}
    json_path = os.path.join(cfg.out_dir, "report.json")
    _write_json(json_path, doc)
    cols = list(_ROW_KEYS)
    widths = {c: max(len(c), max((len(str(r[c])) for r in rows), default=0))
              for c in cols}
    table = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for r in rows:
        table.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    txt_path = os.path.join(cfg.out_dir, "report.txt")
    _atomic_write(txt_path, "\n".join(table) + "\n")
    print("\n".join(table))
    print(f"-> {json_path}, {txt_path}")
    return 0


# command -> (handler, the options it reads); --out-dir and --cache-dir pass everywhere
_COMMANDS = {"verify": (cmd_verify, "p m modulus f theta"),
             "find-theta": (cmd_find_theta, "p m modulus f"),
             "build": (cmd_build, "p m modulus f theta"),
             "rank": (cmd_rank, "p m modulus f theta engine"),
             "kloosterman": (cmd_kloosterman, "p m"),
             "spectrum": (cmd_spectrum, "p m modulus f theta"),
             "report": (cmd_report, "engine")}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise FieldError, so they exit 1 through main's one error line."""

    def error(self, message: str):
        raise FieldError(message)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key=value config file")
    sp.add_argument("--p")
    sp.add_argument("--m")
    sp.add_argument("--modulus", help="extension-field modulus, comma-separated")
    sp.add_argument("--f", help="square | cm:k | user:path")
    sp.add_argument("--theta", help="auto | index")
    sp.add_argument("--engine", help="auto | gf2 | spectrum | both")
    sp.add_argument("--out-dir", dest="out_dir")
    sp.add_argument("--cache-dir", dest="cache_dir")


def main(argv=None) -> int:
    parser = _Parser(prog="shiftunital", description="Unitals in shift planes")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(subs.add_parser(name))
    subs.choices["spectrum"].add_argument("--witness-all", action="store_true")
    subs.choices["report"].add_argument("--q", required=True, help="comma-separated q list")
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        refuse_unread(args.command, cfg)
        return _COMMANDS[args.command][0](cfg, args)
    except (DesignError, FieldError, VerificationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

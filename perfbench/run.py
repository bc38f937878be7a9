"""Benchmark of shiftunital: the CLI user flows and the spectrum engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from any directory; the package is taken from `src/` next to this directory.
A run repeats its workload's round of ops, one child process at a time, until
--seconds have passed (at least one round), checks every op's output against known
values, and prints as its last stdout line one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the ops run under the span recorder in tracer.py and the metrics are the
per-layer ones. --all runs every workload untraced and traced and prints a table of
every metric, the per-op times, the failed share and the tracing overhead.
See README.md in this directory for why each workload exists and what is left out.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

SETUP_REPS = 5          # fresh set-up processes per untraced run; setup_s is their median
ROUNDS_BUDGET_S = 110   # no new round starts if it would end later than this
RUN_DEADLINE_S = 165    # an op still running this long after the run began is killed

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def upper(q: int) -> int:
    """The proven upper bound q^3 - q + 1 on dim C_2; every shipped instance meets it."""
    return q**3 - q + 1


# ---------------------------------------------------------------- op output checks
# Each check gets the op's result and the results of the round so far, and returns
# None when the output is right, else a one-line reason.

def _row_line(res) -> str | None:
    return next((ln for ln in res.stdout.splitlines() if ln.startswith("{")), None)


def check_verify(q: int):
    want = ("planarity: ok", "plane axioms: ok", f"design 2-({q**3 + 1},{q + 1},1): ok",
            "lines meet unital in 1 or q+1: ok", "oval decomposition: ok",
            "point-regular shift action: ok")

    def check(res, done):
        lines = res.stdout.splitlines()
        missing = [w for w in want if not any(ln.startswith(w) for ln in lines)]
        return f"missing verify lines {missing}" if missing else None
    return check


def _check_row(row: dict, q: int, both: bool) -> str | None:
    ranks = [row["rank_gf2"], row["rank_spectrum"]]
    if both and None in ranks:
        return f"q={q}: an engine did not run: {ranks}"
    if not any(r is not None for r in ranks):
        return f"q={q}: no rank"
    if any(r is not None and r != upper(q) for r in ranks) or row["q"] != q:
        return f"q={q}: ranks {ranks}, want {upper(q)}"
    if row["conjecture_match"] is not True:
        return f"q={q}: conjecture_match is {row['conjecture_match']}"
    return None


def check_rank(q: int, both: bool = False, same_as: str | None = None):
    def check(res, done):
        line = _row_line(res)
        if line is None:
            return "no result row on stdout"
        if same_as is not None and line != _row_line(done[same_as]):
            return f"row differs from {same_as}'s"
        return _check_row(json.loads(line), q, both)
    return check


def check_spectrum_cmd(q: int):
    def check(res, done):
        ok = any(ln.startswith(f"spectrum size {upper(q)} ") for ln in res.stdout.splitlines())
        return None if ok else f"no 'spectrum size {upper(q)}' line"
    return check


def check_report(qs: list[int], same_as: str | None = None):
    def check(res, done):
        path = os.path.join(res.out_dir, "report.json")
        try:
            with open(path) as fh:
                rows = json.load(fh)["rows"]
        except (OSError, ValueError, KeyError) as exc:
            return f"report.json unreadable: {exc}"
        if same_as is not None and rows != done[same_as].extra:
            return f"rows differ from {same_as}'s"
        res.extra = rows
        if sorted({r["q"] for r in rows}) != sorted(qs):
            return f"rows for q = {sorted({r['q'] for r in rows})}, want {qs}"
        return next((e for e in (_check_row(r, r["q"], True) for r in rows) if e), None)
    return check


def check_kloosterman(m: int, counts: dict):
    def check(res, done):
        found = re.search(r"class counts (\{.*?\})", res.stdout)
        if found is None or ast.literal_eval(found.group(1)) != counts:
            return f"class counts {found and found.group(1)}, want {counts}"
        with open(os.path.join(res.out_dir, f"kloosterman_p3m{m}.csv")) as fh:
            n_rows = sum(1 for ln in fh if ln[:1].isdigit())
        return None if n_rows == 3**m else f"atlas has {n_rows} rows, want {3**m}"
    return check


def check_spectrum_lib(q: int, lo: int, n_rows: int):
    """Every size within [lo, q^3 - q + 1], the proven window for the instance."""
    def check(res, done):
        try:
            doc = json.loads(res.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return "no result line"
        sizes = [r["size"] for r in doc["rows"]]
        if doc["q"] != q or len(sizes) != n_rows:
            return f"q={doc['q']} with {len(sizes)} instances, want q={q} with {n_rows}"
        bad = [s for s in sizes if not lo <= s <= upper(q)]
        return f"sizes {bad} outside [{lo}, {upper(q)}]" if bad else None
    return check


# ---------------------------------------------------------------- workloads

@dataclass
class Op:
    name: str
    kind: str                 # "cli" (argv for shiftunital) or "spectrum" (library JSON)
    args: object
    check: object


@dataclass
class Workload:
    setup: list[dict]         # instances the set-up child builds
    ops: list[Op]
    op_metrics: dict[str, list[str]]   # per-op time metric -> ops summed into it


Q27 = ["--p", "3", "--m", "3"]
SMALL_QS = [3, 5, 7, 9, 11, 13]
REPORT = ["report", "--q", ",".join(map(str, SMALL_QS)), "--engine", "both"]
CM_PICKS = 12             # cm:5 thetas per spectrum-mid round, chosen by the seed
# proven lower end of the dim C_2 window at q = 27: the p = 3 corollary bound (README)
Q27_LOWER = 13625


def workloads(seed: int) -> dict[str, Workload]:
    rng = random.Random(seed)
    picks = [rng.randrange(10**6) for _ in range(CM_PICKS)]
    return {
        "q27-pipeline": Workload(
            setup=[{"p": 3, "m": 3, "f": "square"}],
            ops=[Op("verify", "cli", ["verify", *Q27], check_verify(27)),
                 Op("rank_cold", "cli", ["rank", *Q27], check_rank(27)),
                 Op("rank_warm", "cli", ["rank", *Q27], check_rank(27, same_as="rank_cold")),
                 Op("spectrum_cmd", "cli", ["spectrum", *Q27], check_spectrum_cmd(27))],
            op_metrics={"verify_s": ["verify"], "rank_cold_s": ["rank_cold"],
                        "rank_warm_s": ["rank_warm"], "spectrum_cmd_s": ["spectrum_cmd"]}),
        "spectrum-mid": Workload(
            setup=[{"p": 7, "m": 2, "f": "square"},
                   {"p": 3, "m": 3, "f": "cm:5", "picks": picks}],
            ops=[Op("spectrum_square", "spectrum", {"p": 7, "m": 2, "f": "square"},
                    check_spectrum_lib(49, upper(49), 1)),
                 Op("spectrum_cm", "spectrum", {"p": 3, "m": 3, "f": "cm:5", "picks": picks},
                    check_spectrum_lib(27, Q27_LOWER, CM_PICKS))],
            op_metrics={"spectrum_square_s": ["spectrum_square"],
                        "spectrum_cm_s": ["spectrum_cm"]}),
        "small-sweep": Workload(
            setup=[*({"p": p, "m": m, "f": "registry"} for p, m in
                     ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1))),
                   {"p": 17, "m": 1, "f": "square"}, {"p": 19, "m": 1, "f": "square"},
                   {"p": 3, "m": 7, "f": None}],
            ops=[Op("report_cold", "cli", REPORT, check_report(SMALL_QS)),
                 Op("report_warm", "cli", REPORT, check_report(SMALL_QS, "report_cold")),
                 Op("rank_17", "cli", ["rank", "--p", "17", "--m", "1", "--engine", "both"],
                    check_rank(17, both=True)),
                 Op("rank_19", "cli", ["rank", "--p", "19", "--m", "1", "--engine", "both"],
                    check_rank(19, both=True)),
                 Op("kloosterman", "cli", ["kloosterman", "--p", "3", "--m", "7"],
                    check_kloosterman(7, {"count_a": 729, "count_b": 910, "count_c": 547}))],
            op_metrics={"report_cold_s": ["report_cold"], "report_warm_s": ["report_warm"],
                        "rank_mid_s": ["rank_17", "rank_19"],
                        "kloosterman_s": ["kloosterman"]}),
    }


WORKLOAD_NAMES = tuple(workloads(0))

# ---------------------------------------------------------------- child processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("UNITAL_CACHE_DIR", "UNITAL_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class OpResult:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    out_dir: str
    error: str | None = None
    extra: object = None


def spawn(argv: list[str], cwd: str, log: str, deadline: float) -> tuple:
    """Run argv to completion; (start, wall, cpu, peak rss MB, exit code, stdout).

    The child is killed when `deadline` (time.monotonic) passes. Waiting blocks in
    wait4, with no polling, so run.py takes no CPU from the op it times.
    """
    with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)   # resumed after the alarm handler
        except BaseException:
            proc.kill()                                 # interrupted: leave no child behind
            os.waitpid(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".out") as fh:
        stdout = fh.read()
    return (start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            proc.returncode, stdout)


@dataclass
class Run:
    workload: Workload
    work: str
    trace: bool
    deadline: float
    spans: list = field(default_factory=list)

    def run_op(self, op: Op, rnd: int, round_dir: str, done: dict) -> OpResult:
        cache, out = os.path.join(round_dir, "cache"), os.path.join(round_dir, "out")
        op_id = f"r{rnd}.{op.name}"
        log = os.path.join(round_dir, op.name)
        trace_out = log + ".spans.jsonl"
        if op.kind == "cli":
            mode, args = "cli", [*op.args, "--cache-dir", cache, "--out-dir", out]
        else:
            mode, args = "spectrum", [json.dumps(op.args)]
        if self.trace:
            spawned = time.monotonic()
            argv = [sys.executable, CHILD, "--trace-out", trace_out, "--trace-id", op_id,
                    "--parent", op_id, "--spawned", repr(spawned), mode, *args]
        elif mode == "cli":
            argv = [sys.executable, "-m", "shiftunital.cli", *args]
        else:
            argv = [sys.executable, CHILD, mode, *args]
        start, wall, cpu, rss, code, stdout = spawn(argv, round_dir, log, self.deadline)
        res = OpResult(op.name, wall, cpu, rss, code, stdout, out)
        if code != 0:
            with open(log + ".err") as fh:
                tail = fh.read().strip().splitlines()[-1:] or [""]
            res.error = f"exit code {code}: {tail[0]}"
        else:
            try:
                res.error = op.check(res, done)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                res.error = f"output check raised {exc!r}"
        if self.trace:
            self.spans.append({"trace": op_id, "id": op_id, "parent": f"r{rnd}",
                               "name": f"op.{op.name}", "start": spawned, "end": start + wall})
            if os.path.exists(trace_out):
                with open(trace_out) as fh:
                    self.spans.extend(json.loads(ln) for ln in fh)
        return res

    def run_round(self, rnd: int) -> dict:
        round_dir = os.path.join(self.work, f"round{rnd}")
        os.makedirs(round_dir)
        done: dict[str, OpResult] = {}
        start = time.monotonic()
        for op in self.workload.ops:
            done[op.name] = self.run_op(op, rnd, round_dir, done)
        wall = time.monotonic() - start
        shutil.rmtree(round_dir)    # the q=27 cache holds a 75 MB design file
        if self.trace:
            self.spans.append({"trace": f"r{rnd}", "id": f"r{rnd}", "parent": "run",
                               "name": "round", "start": start, "end": start + wall})
        return {"wall_s": wall, "ops": done}


def run_setup(workload: Workload, work: str, deadline: float) -> list[float]:
    times = []
    for rep in range(SETUP_REPS):
        log = os.path.join(work, f"setup{rep}")
        _, wall, _, _, code, _ = spawn([sys.executable, CHILD, "setup",
                                        json.dumps(workload.setup)], work, log, deadline)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}; see {log}.err")
        times.append(wall)
    return times


# ---------------------------------------------------------------- records

def machine() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "shiftunital")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def median_of(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from tracer import LAYER_UNITS, layer_metrics
    t0 = time.monotonic()
    workload = workloads(seed)[name]
    work = os.path.join(HERE, "work", f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "loadavg_before": os.getloadavg()}
    run = Run(workload, work, trace, deadline=t0 + RUN_DEADLINE_S)
    try:
        warm = spawn([sys.executable, "-c", "import shiftunital.cli"], work,
                     os.path.join(work, "warmup"), run.deadline)
        if warm[4] != 0:
            raise RuntimeError("the package does not import")
        setup_times = [] if trace else run_setup(workload, work, run.deadline)
        rounds = []
        started = time.monotonic()
        while True:
            rounds.append(run.run_round(len(rounds) + 1))
            elapsed = time.monotonic() - started
            if elapsed >= seconds or elapsed + rounds[-1]["wall_s"] > ROUNDS_BUDGET_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()

    ops = [res for r in rounds for res in r["ops"].values()]
    failures = [f"round {i + 1} {res.name}: {res.error}" for i, r in enumerate(rounds)
                for res in r["ops"].values() if res.error]
    per_round = []
    for r in rounds:
        done = r["ops"]
        row = {"wall_s": r["wall_s"],
               "peak_rss_mb": max(res.rss_mb for res in done.values()),
               "cpu_s": sum(res.cpu_s for res in done.values())}
        row.update({m: sum(done[o].wall_s for o in names)
                    for m, names in workload.op_metrics.items()})
        per_round.append(row)
    summary = median_of(per_round)
    record.update({"rounds": len(rounds), "setup_times_s": setup_times,
                   "per_round": per_round, "failures": failures,
                   "ops": [{k: getattr(res, k) for k in
                            ("name", "wall_s", "cpu_s", "rss_mb", "code", "error")}
                           for res in ops]})
    if trace:
        run.spans.append({"trace": "run", "id": "run", "parent": None,
                          "name": f"workload.{name}", "start": t0, "end": time.monotonic()})
        layers = []
        for rnd in range(1, len(rounds) + 1):
            layers.append(layer_metrics([s for s in run.spans
                                         if s["trace"].split(".")[0] == f"r{rnd}"]))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in median_of(layers).items()}
        metrics["trace.wall_s"] = {"value": summary["wall_s"], "unit": "s"}
        spans_path = os.path.join(results, f"{name}-s{seed}-t1.spans.jsonl")
        with open(spans_path, "w") as fh:
            for span in run.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        summary["setup_s"] = statistics.median(setup_times)
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    record.update({"summary": summary, "metrics": metrics})
    with open(os.path.join(results, f"{name}-s{seed}-t{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {name} seed={seed} trace={int(trace)} rounds={len(rounds)} "
          f"loadavg {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for k, v in summary.items():
        print(f"#   {k} = {v:.4f}")
    for line in failures:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced; one table with units and overheads."""
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        out = {}
        for trace in (0, 1):
            got = subprocess.run([sys.executable, __file__, "--workload", name,
                                  "--seed", str(seed), "--seconds", str(seconds),
                                  "--trace", str(trace)], capture_output=True, text=True)
            if got.returncode != 0:
                print(got.stdout + got.stderr, file=sys.stderr)
                return got.returncode
            out[trace] = json.loads(got.stdout.strip().splitlines()[-1])
            ok = ok and out[trace]["correct"]
        with open(os.path.join(HERE, "results", f"{name}-s{seed}-t0.json")) as fh:
            summary = json.load(fh)["summary"]
        res = out[0]
        rows.append((name, "failed_frac", res["failed"] / res["attempted"], "1"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
        rows += [(name, k, v, "s") for k, v in summary.items()
                 if k not in res["metrics"] and k.endswith("_s")]
        rows.append((name, "trace_overhead_s",
                     out[1]["metrics"]["trace.wall_s"]["value"] - summary["wall_s"], "s"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in out[1]["metrics"].items()]
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print(f"{name:14s} {metric:{width}s} {value:14.4f} {unit}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "shiftunital", "cli.py")):
        print(f"error: no shiftunital sources under {SRC}", file=sys.stderr)
        return 2
    if opts.all:
        return run_all(opts.seed, opts.seconds)
    if opts.workload is None:
        parser.error("give --workload NAME or --all")
    try:
        return run_workload(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

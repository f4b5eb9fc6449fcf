"""loupe CLI benchmark.

    python3 bench/run.py --workload {wos,loops,sle} --seed N --seconds S \
        --trace {0,1}

Run from the root of a loupe checkout.  With --trace 0 the workload's
operations run as `python -m loupe.cli ...` children, one at a time, in
whole rounds until the next round would overrun S seconds (at least one
round), and the end-to-end metrics are printed.  With --trace 1 one round
runs in this process through the CLI's own entry, first with every public
loupe function wrapped (see tracing.py) and then untraced, and the
per-layer metrics are printed.  Every artifact is checked against closed
forms computed here.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# a run must end within 180 s: no new round starts past ROUND_DEADLINE_S,
# and a traced run compares untraced artifacts only up to COMPARE_BUDGET_S
ROUND_DEADLINE_S = 100.0
COMPARE_BUDGET_S = 100.0
CHILD_TIMEOUT_S = 170.0


class SetupError(RuntimeError):
    """The checkout cannot run loupe."""


def _loupe_env(root: Path, cache_dir: str | None) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("LOUPE_CACHE_DIR", None)
    if cache_dir is not None:
        env["LOUPE_CACHE_DIR"] = cache_dir
    return env


def run_child(root: Path, argv: list, env: dict, scratch: str,
              timeout: float) -> dict:
    """Run `python -m loupe.cli argv` to completion; return its wall time,
    peak RSS, exit code and stderr text."""
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "loupe.cli", *argv],
                                cwd=root, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "stderr": stderr, "stdout": stdout}


def measure_setup(root: Path, scratch: str) -> float:
    """Wall time of one cold `python -m loupe.cli --version` child."""
    res = run_child(root, ["--version"], _loupe_env(root, None), scratch,
                    CHILD_TIMEOUT_S)
    if res["code"] != 0 or "version" not in res["stdout"]:
        raise SetupError(f"loupe --version failed: {res['stderr'].strip()}")
    return res["wall"]


# ---------------------------------------------------------------------------
# artifact checks shared by both modes


def check_round(ops, results) -> list:
    """Reference checks on first-pass artifacts and replay checks against
    them.  results maps label -> {"code", "artifact", "stderr"}.  No
    operation of a workload is expected to fail, so a non-zero exit is a
    problem too: a crash must not read as a faster, correct run."""
    problems = []
    for op in ops:
        res = results[op.label]
        if res["code"] != 0:
            problems.append(f"{op.label}: exited {res['code']}")
            continue
        try:
            art = json.loads(res["artifact"])
        except ValueError as exc:
            problems.append(f"{op.label}: artifact is not JSON ({exc})")
            continue
        if op.replay_of is None:
            try:
                problems += [f"{op.label}: {p}"
                             for p in workloads.check_artifact(op, art)]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems.append(f"{op.label}: malformed artifact ({exc!r})")
            continue
        first = results[op.replay_of]
        if first["code"] != 0:
            continue
        if op.kind == "replay":
            if "(cached)" not in res["stderr"]:
                problems.append(f"{op.label}: exact replay missed the cache")
            if res["artifact"] != first["artifact"]:
                problems.append(f"{op.label}: replay artifact differs from "
                                "the first pass")
        elif art["result"] != json.loads(first["artifact"])["result"]:
            problems.append(f"{op.label}: respaced replay changed the result")
    return problems


def wnv_terms(ops, results) -> list:
    """(stderr/|reference|)^2 x wall seconds for each Monte Carlo operation
    that computed its result.  The closed form scales the variance rather
    than the estimate itself, whose own noise would otherwise dominate the
    spread of wnv."""
    terms = []
    for op in ops:
        res = results[op.label]
        if op.kind != "mc" or not op.reference or res["code"] != 0:
            continue
        _, stderr = workloads.estimate_of(json.loads(res["artifact"]))
        if stderr > 0:
            terms.append((stderr / abs(op.reference)) ** 2 * res["wall"])
    return terms


# ---------------------------------------------------------------------------
# --trace 0: CLI children, end-to-end metrics


def run_round(root: Path, workload: str, seed: int, rnd: int, scratch: str,
              deadline: float):
    ops = workloads.build(workload, seed, rnd)
    cache = tempfile.mkdtemp(prefix="cache-", dir=scratch) \
        if workload == "wos" else None
    env = _loupe_env(root, cache)
    results = {}
    start = time.perf_counter()
    for i, op in enumerate(ops):
        art_path = os.path.join(scratch, f"artifact-{rnd}-{i}.json")
        timeout = max(1.0, deadline - time.perf_counter())
        res = run_child(root, [*op.argv, "--out", art_path], env, scratch,
                        timeout)
        res["artifact"] = ""
        if res["code"] == 0:
            with open(art_path, encoding="utf-8") as fh:
                res["artifact"] = fh.read()
            print(f"[{workload}] {op.label}: {res['wall']:.3f} s "
                  f"({res['cpu']:.3f} s cpu), {res['rss_mb']:.0f} MB, "
                  f"{res['stderr'].strip()}", file=sys.stderr)
        else:
            print(f"[{workload}] {op.label} exited {res['code']}: "
                  f"{res['stderr'].strip()[-400:]}", file=sys.stderr)
        results[op.label] = res
    wall = time.perf_counter() - start
    return ops, results, wall


def untraced(root: Path, workload: str, seed: int, seconds: float,
             scratch: str, t_process: float) -> dict:
    setup_s = measure_setup(root, scratch)
    walls, rss, terms, problems = [], 0.0, [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    hard_deadline = t_process + CHILD_TIMEOUT_S
    rnd = 0
    while True:
        ops, results, wall = run_round(root, workload, seed, rnd, scratch,
                                       hard_deadline)
        rnd += 1
        walls.append(wall)
        attempted += len(ops)
        failed += sum(1 for r in results.values() if r["code"] != 0)
        rss = max([rss] + [r["rss_mb"] for r in results.values()])
        terms += wnv_terms(ops, results)
        problems += check_round(ops, results)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(walls)
        if elapsed + typical > seconds or \
                time.perf_counter() - t_process + typical > ROUND_DEADLINE_S:
            break
    for p in problems:
        print(f"[{workload}] CHECK FAILED {p}", file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        # no Monte Carlo operation succeeded: correct is false, wnv reads 0
        "wnv": (math.exp(statistics.fmean(math.log(x) for x in terms))
                if terms else 0.0, "s"),
    }
    print(f"[{workload}] seed {seed}: {rnd} round(s), walls "
          f"{[round(w, 3) for w in walls]}", file=sys.stderr)
    return {"correct": not problems and bool(terms), "attempted": attempted,
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# --trace 1: in-process, untraced then traced, per-layer metrics


def import_loupe(root: Path) -> dict:
    src = root / "src"
    sys.path.insert(0, str(src))
    import importlib
    names = ("cli", "records", "geometry", "engine", "kernels", "bubble",
             "loops", "lamstar", "sle", "svg")
    mods = {n: importlib.import_module(f"loupe.{n}") for n in names}
    where = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"imported loupe from {where}, not from {src}")
    return mods


def call_cli(mods: dict, argv: list, art_path: str, runner=None) -> dict:
    """Run one operation through loupe.cli.main as the console script
    would, capturing its exit code, stderr and artifact."""
    err = io.StringIO()
    code = 0
    saved = sys.argv
    sys.argv = ["loupe", *argv, "--out", art_path]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            if runner is None:
                mods["cli"].main()
            else:
                runner(mods["cli"].main)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaped error fails this operation only
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        sys.argv = saved
    wall = time.perf_counter() - start
    artifact = ""
    if code == 0:
        with open(art_path, encoding="utf-8") as fh:
            artifact = fh.read()
    return {"code": code, "stderr": err.getvalue(), "artifact": artifact,
            "wall": wall}


def in_process_pass(mods, ops, scratch, tag, workload, runner=None,
                    per_op=None, skip=None):
    """Run ops in order through the CLI entry; `skip(op, results)` may leave
    an operation out.  Returns results by label and the summed op walls."""
    cache = tempfile.mkdtemp(prefix=f"cache-{tag}-", dir=scratch)
    saved = os.environ.pop("LOUPE_CACHE_DIR", None)
    if workload == "wos":
        os.environ["LOUPE_CACHE_DIR"] = cache
    results = {}
    try:
        for i, op in enumerate(ops):
            if skip is not None and skip(op, results):
                continue
            before = per_op() if per_op else None
            res = call_cli(mods, op.argv,
                           os.path.join(scratch, f"{tag}-{i}.json"), runner)
            if per_op:
                after = per_op()
                res["counters"] = {k: after.get(k, 0) - before.get(k, 0)
                                   for k in after}
            results[op.label] = res
    finally:
        os.environ.pop("LOUPE_CACHE_DIR", None)
        if saved is not None:
            os.environ["LOUPE_CACHE_DIR"] = saved
    return results


WALKER_COMMANDS = ("harmonic", "excursion", "capacity", "conformal-radius")


def traced(root: Path, workload: str, seed: int, scratch: str,
           out_dir: Path, t_process: float) -> dict:
    """Traced pass over round 0, then an untraced pass over the same
    operations for the byte-identity check and the tracing overhead.  An
    untraced operation whose traced time would carry the run past
    COMPARE_BUDGET_S is left out of the comparison (and its replays with
    it), so that the run ends within its time limit."""
    import tracing

    mods = import_loupe(root)
    ops = workloads.build(workload, seed, 0)
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        runner = lambda main: tracer.call(main, "cli.main", "cli")  # noqa
        traced_res = in_process_pass(mods, ops, scratch, "traced", workload,
                                     runner, tracer.snapshot)
    finally:
        tracer.uninstall()

    def skip(op, done):
        if op.replay_of is not None and op.replay_of not in done:
            return True
        elapsed = time.perf_counter() - t_process
        return elapsed + traced_res[op.label]["wall"] > COMPARE_BUDGET_S

    plain = in_process_pass(mods, ops, scratch, "plain", workload, skip=skip)

    problems = check_round(ops, traced_res)
    for op in ops:
        b = traced_res[op.label]
        a = plain.get(op.label)
        if a is not None and (a["code"], a["artifact"]) != \
                (b["code"], b["artifact"]):
            problems.append(f"{op.label}: traced artifact differs from the "
                            f"untraced one; traced run exited {b['code']}: "
                            f"{b['stderr'].strip()[-300:]}")
        if op.argv[0] in WALKER_COMMANDS and b["code"] == 0 and \
                "(cached)" not in b["stderr"]:
            n = json.loads(b["artifact"])["result"]["estimate"]["n"]
            walkers = b["counters"].get("wos.walkers", 0)
            if walkers != n:
                problems.append(f"{op.label}: {walkers} walkers traced, "
                                f"artifact reports n = {n}")
    for t_end, dt, steps, want in tracer.step_mismatch:
        problems.append(f"whole_plane_sample(t={t_end!r}, dt={dt!r}) took "
                        f"{steps} steps, expected {want}")
    for p in problems:
        print(f"[{workload}] CHECK FAILED {p}", file=sys.stderr)

    compared = [op.label for op in ops if op.label in plain]
    traced_wall = sum(traced_res[k]["wall"] for k in compared)
    plain_wall = sum(plain[k]["wall"] for k in compared)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    trace_path = out_dir / f"trace-{workload}-{seed}.json"
    tracer.dump(trace_path, {
        "workload": workload, "seed": seed,
        "compared_ops": compared,
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "ops": [{"label": op.label, "argv": op.argv,
                 "traced_s": traced_res[op.label]["wall"],
                 "untraced_s": plain[op.label]["wall"]
                 if op.label in plain else None,
                 "counters": traced_res[op.label]["counters"]} for op in ops],
        "metrics": metrics})
    print(f"[{workload}] trace written to {trace_path}; {len(compared)} of "
          f"{len(ops)} operations compared untraced: {plain_wall:.3f} s, "
          f"traced {traced_wall:.3f} s", file=sys.stderr)
    failed = sum(1 for r in traced_res.values() if r["code"] != 0)
    return {"correct": not problems, "attempted": len(ops), "failed": failed,
            "metrics": {k: (metrics[k], units[k]) for k in units}}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    t_process = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "loupe" / "cli.py").is_file():
        print(f"no loupe source under {root / 'src'}; run from the root of "
              "a loupe checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        if args.trace:
            result = traced(root, args.workload, args.seed, scratch, out_dir,
                            t_process)
        else:
            result = untraced(root, args.workload, args.seed, args.seconds,
                              scratch, t_process)
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

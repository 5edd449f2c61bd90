"""End-to-end and per-layer benchmark of mgconsensus.

One workload, as the benchmark contract runs it (prints a table, then one
JSON line with the end-to-end metrics, or the per-layer ones with --trace 1):

    python3 perfbench/run.py --workload ring4-modes --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with the tracing overhead and
provenance written to perfbench/out/BENCH_<commit>.json:

    python3 perfbench/run.py --all --seed 1 --seconds 30

One tiny op of each workload, checking metric names, units and counts:

    python3 perfbench/run.py --smoke

The package is imported from src/ of the checkout that holds this file; the
benchmark exits 1 without a result when that source is absent. Ops run back to
back in this one process (a closed loop with one client, no threads), in
rounds: a round runs every op kind of the workload once, and the loop stops at
the first round boundary after --seconds, with at least two rounds so every op
kind repeats and its outputs can be compared byte for byte. A fixed block of
reference work is timed after every op. `op_rel`, the gated op time, divides
each op's wall time by the mean block time just before and after it, so a
host whose speed drifts between runs still gives the same figure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from recorder import Recorder, install, per_layer  # noqa: E402

# name -> unit; the order the contract line and the table print them in
END_TO_END = {"setup_s": "s", "op_rel": "ref", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5        # cold starts before and again after the measured loop
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# Reference work timed between ops: at least this share of the op before it,
# and at least REF_MIN_S.
REF_SHARE = 0.2
REF_MIN_S = 0.02

_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((64, 64))
_REF_X = _REF_RNG.standard_normal(64)
_REF_LIST = [float(i) for i in range(1500)]


def _ref_block() -> None:
    """A fixed block of the kinds of work the package does, about 1 ms each:
    an interpreted loop over a dict, small numpy array operations, float
    formatting, and lists of floats rebuilt by comprehension (as attack
    generation does)."""
    d: dict = {}
    for i in range(4000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    x = _REF_X.copy()
    for i in range(300):
        x = np.minimum(_REF_A[i % 64] * 0.01 + x, 5.0)
        x.sum()
    buf = io.StringIO()
    for i in range(600):
        buf.write(f"{i * 0.37:.6f},{i * 1.1:.6g},{i}\n")
    xs = _REF_LIST
    for _ in range(15):
        xs = [c + 0.5 for c in xs]


def reference(min_s: float) -> float:
    """Mean wall time of one reference block, over blocks run for >= `min_s`.

    On a shared 2-vCPU host the speed drifted by up to 1.8x over tens of
    seconds; this block slows with it, so op time over the blocks timed just before and after
    the op is steady where the op's wall time is not.
    """
    n, t0 = 0, perf_counter()
    while n < 2 or perf_counter() - t0 < min_s:
        _ref_block()
        n += 1
    return (perf_counter() - t0) / n


def src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def import_package():
    """Import mgconsensus from this checkout's src/, never from elsewhere."""
    if not (SRC / "mgconsensus" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'mgconsensus'}")
    sys.path.insert(0, str(SRC))
    import mgconsensus
    import mgconsensus.cli  # noqa: F401 - the modules the recorder wraps

    if Path(mgconsensus.__file__).resolve().parent != SRC / "mgconsensus":
        raise SystemExit(f"mgconsensus imported from {mgconsensus.__file__}, not {SRC}")
    return mgconsensus


def cold_starts(scenario: Path, n: int) -> list[float]:
    """Wall times of `n` cold starts: process, `import mgconsensus`, `load_scenario`."""
    code = "import sys, mgconsensus; mgconsensus.load_scenario(sys.argv[1])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(n):
        t0 = perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code, str(scenario)], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def provenance(mg, seed: int, scenarios: list[Path]) -> dict:
    import importlib.util

    import numpy

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": src_digest(),
        "package_version": mg.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "scenario_sha256": {str(p.relative_to(ROOT)): hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in scenarios},
    }


def tail(times: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and which one."""
    n = len(times)
    if n < 11:
        return None, None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def measure(wl, rec: Recorder, seconds: int) -> dict:
    """Run rounds of ops until `seconds` have passed (at least two rounds).

    Reference blocks run before the first op and after every op; each op is
    recorded with its wall time and the mean block time around it.
    """
    act = rec.wrap("op", wl.act)
    ref: dict[str, tuple] = {}
    ops, errors = [], []
    totals: Counter = Counter()
    t_start, rounds = perf_counter(), 0
    block_s = reference(REF_MIN_S)
    while rounds < 2 or perf_counter() - t_start < seconds:
        for kind in wl.kinds:
            rec.begin_op()
            t0 = perf_counter()
            try:
                state = act(kind)
                dt = perf_counter() - t0
                errs, digest = wl.check(kind, state, rec)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                dt = perf_counter() - t0
                errs, digest = [traceback.format_exc(limit=3)], ""
            counts = dict(rec.counts)
            if kind in ref and errs == [] and ref[kind] != (digest, counts):
                errs.append(f"{kind}: outputs or counts differ from the first {kind} op")
            ref.setdefault(kind, (digest, counts))
            before, block_s = block_s, reference(max(REF_MIN_S, REF_SHARE * dt))
            ops.append((kind, dt, not errs, (before + block_s) / 2))
            errors += errs
            totals.update(rec.counts)
        rounds += 1
    return {"ops": ops, "errors": errors, "totals": totals,
            "counts": {k: v[1] for k, v in ref.items()}}


def counts_repeat(name: str, seed: int, tiny: bool, scenario: Path, counts: dict) -> list[str]:
    """Deterministic counts must repeat exactly across runs of the same code.

    The first run of a (source, inputs) pair records them; later runs compare.
    """
    key = hashlib.sha256(json.dumps(
        [src_digest(), name, seed, tiny, hashlib.sha256(scenario.read_bytes()).hexdigest()]
    ).encode()).hexdigest()[:24]
    path = WORK / "counts" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            return [f"deterministic counts differ from an earlier run ({path.name})"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool,
                 out: Path | None) -> int:
    from workloads import WORKLOADS

    mg = import_package()
    work = WORK / name
    wl = WORKLOADS[name](mg, ROOT, work, seed, tiny)
    starts = cold_starts(wl.scenario, SETUP_REPEATS + 1)[1:]  # the first may write bytecode

    rec = Recorder(timed=trace)
    install(rec, mg)
    res = measure(wl, rec, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    starts += cold_starts(wl.scenario, SETUP_REPEATS)
    errors = res["errors"] + counts_repeat(name, seed, tiny, wl.scenario, res["counts"])

    ops = res["ops"]
    n_ops = len(ops)
    failed = sum(1 for _, _, ok, _ in ops if not ok)
    times = [dt for _, dt, _, _ in ops]
    by_kind = [[dt for k, dt, _, _ in ops if k == kind] for kind in wl.kinds]
    rel_by_kind = [[dt / block for k, dt, _, block in ops if k == kind] for kind in wl.kinds]
    round_work = sum(wl.work(res["counts"][kind]) for kind in wl.kinds)
    # Each op kind's median, averaged over kinds, so the mode mix is fixed.
    medians = [statistics.median(ts) for ts in by_kind]
    op_s = statistics.fmean(medians)
    op_rel = statistics.fmean(statistics.median(rs) for rs in rel_by_kind)
    tail_s, tail_pct = tail(times)
    e2e = {"setup_s": statistics.median(starts), "op_rel": op_rel, "peak_rss_mb": peak_rss_mb}
    extra = {
        "op_s": (op_s, "s"),
        "ref_block_s": (statistics.median(block for *_, block in ops), "s"),
        "work_per_s": (round_work / sum(medians), "1/s"),
        "op_s_tail": (tail_s, "s"),
        "op_s_tail_percentile": (tail_pct, "%"),
        f"{wl.work_unit}_per_s": (wl.work(res["totals"]) / sum(times), "1/s"),
        "ops": (n_ops, "count"),
        "fail_frac": (failed / n_ops, "ratio"),
    }
    if trace:
        metrics = per_layer(rec.spans, res["totals"], n_ops, op_s, op_rel)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}

    mode = "traced" if trace else "untraced"
    print(f"# {name} seed={seed} {mode}: {n_ops} ops in {sum(times):.2f} s of op time, "
          f"{failed} failed")
    for k, (v, unit) in {**metrics, **extra}.items():
        print(f"{k:<36} {'n/a' if v is None else format(v, '.6g'):>14} {unit}")
    for err in errors[:5]:
        print(f"ERROR {err.strip()}", file=sys.stderr)
    correct = not errors
    if out is not None:
        out.write_text(json.dumps({
            "workload": name, "seed": seed, "traced": trace, "correct": correct,
            "attempted": n_ops, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
            "counts": res["counts"], "errors": errors[:20],
            "provenance": provenance(mg, seed, [wl.scenario]),
        }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": n_ops, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _child(name: str, seed: int, seconds: int, trace: bool, tiny: bool) -> dict:
    """Run one workload in a fresh process and return its detailed result."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"{name}-{int(trace)}.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", str(out)] + (["--tiny"] if tiny else [])
    res = subprocess.run(argv, cwd=ROOT, timeout=900, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(res.stdout)
    if res.returncode != 0 or not out.exists():
        raise SystemExit(f"{name} (trace {int(trace)}) exited {res.returncode}")
    detail = json.loads(out.read_text())
    detail["contract"] = json.loads(res.stdout.strip().splitlines()[-1])
    return detail


def run_all(seed: int, seconds: int) -> int:
    from workloads import WORKLOADS

    results, ok, scenarios = {}, True, {}
    for name in WORKLOADS:
        plain = _child(name, seed, seconds, False, False)
        prov = plain["provenance"]
        scenarios.update(prov["scenario_sha256"])
        traced = _child(name, seed, seconds, True, False)
        op_plain = plain["metrics"]["op_rel"]["value"]
        op_traced = traced["metrics"]["trace.op_rel"]["value"]
        same = plain["counts"] == traced["counts"]
        ok = ok and plain["correct"] and traced["correct"] and same
        results[name] = {
            "end_to_end": {**plain["metrics"], **plain["extra"]},
            "per_layer": traced["metrics"],
            "tracing_overhead": {"op_rel": {"value": op_traced - op_plain, "unit": "ref"},
                                 "share": {"value": op_traced / op_plain - 1, "unit": "ratio"}},
            "counts": plain["counts"],
            "counts_match_traced": same,
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "errors": plain["errors"] + traced["errors"],
        }
    prov["scenario_sha256"] = scenarios
    OUT.mkdir(exist_ok=True)
    tag = (prov["git_commit"] or "local")[:12]
    path = OUT / f"BENCH_{tag}.json"
    path.write_text(json.dumps({"provenance": prov, "seconds": seconds, "workloads": results},
                               indent=2, sort_keys=True) + "\n")
    print("\nworkload       metric          value        unit   tracing overhead")
    for name, r in results.items():
        for k, unit in END_TO_END.items():
            print(f"{name:<14} {k:<14} {r['end_to_end'][k]['value']:>12.6g} {unit:<6}")
        print(f"{name:<14} {'fail_frac':<14} {r['failed'] / r['attempted']:>12.6g} ratio  "
              f"{r['tracing_overhead']['share']['value']:+.1%} op_rel when traced")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def smoke() -> int:
    """One tiny op of each workload, traced and untraced: names, units, counts."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        runs = {t: _child(name, 1, 0, bool(t), True) for t in (0, 1)}
        for t, r in runs.items():
            got = {k: m["unit"] for k, m in r["contract"]["metrics"].items()}
            if got != want[t]:
                problems.append(f"{name} trace {t}: metrics {sorted(set(got) ^ set(want[t]))} "
                                f"or their units differ from BENCHMARK.json")
            problems += [f"{name}: bad metric name {k!r}" for k in got
                         if not NAME_RE.fullmatch(k)]
            problems += [f"{name}: {k} is not a number" for k, m in
                         r["contract"]["metrics"].items() if not isinstance(m["value"], (int, float))]
            if not r["correct"] or r["failed"]:
                problems.append(f"{name} trace {t}: {r['errors'][:2]}")
        if runs[0]["counts"] != runs[1]["counts"]:
            problems.append(f"{name}: traced and untraced counts differ")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrunken inputs (smoke mode)")
    p.add_argument("--out", type=Path, help="also write the detailed result here")
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    if args.smoke:
        return smoke()
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        p.error("one of --workload, --all or --smoke is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.tiny, args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: run, design, attacks generate, attacks verify, sweep. Outputs
are byte-deterministic for a fixed scenario and seed (sorted JSON keys,
repr-formatted floats in CSV).

Exit codes: 0 success, 1 verification failure, 2 configuration error or an
output that cannot be written (its directory is made before any work).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .attacks import read_channel_set, verify_sequence
from .engine import RunMetrics, Simulation
from .errors import ConfigError
from .scenario import MODES, Scenario, load_scenario


_NUMBER = (int, float, type(None))  # bool is an int; str is never a number


def _numbers(items) -> bool:
    """Whether every item is a JSON number, bool or null."""
    return all(issubclass(t, _NUMBER) for t in set(map(type, items)))


def _key(key) -> str:
    """A dict key as `json` writes it: a str as is, a scalar as its JSON text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


def _encode(data, pad: str, out: list) -> None:
    """Append to `out` the `json.dumps(..., indent=2, sort_keys=True)` text of
    `data`, a value indented by `pad`.

    A list of numbers, or of non-empty lists of numbers, goes to the C encoder
    in one call with the line break and indent in its item separator; only its
    brackets are re-indented. A number's text holds no bracket and no str
    takes this path, so every bracket in that text is a list's own.
    """
    inner = pad + "  "
    if isinstance(data, dict):
        if not data:
            out.append("{}")
            return
        sep = "{\n"
        for key, value in sorted(data.items()):
            out.append(sep + inner + _key(key) + ": ")
            _encode(value, inner, out)
            sep = ",\n"
        out.append("\n" + pad + "}")
    elif not isinstance(data, (list, tuple)):
        out.append(json.dumps(data))
    elif not data:
        out.append("[]")
    elif _numbers(data):
        text = json.dumps(data, separators=(",\n" + inner, ": "))
        out.append("[\n" + inner + text[1:-1] + "\n" + pad + "]")
    elif (all(issubclass(t, (list, tuple)) for t in set(map(type, data))) and all(data)
          and _numbers(chain.from_iterable(data))):
        deep = inner + "  "
        text = json.dumps(data, separators=(",\n" + deep, ": "))
        rows = text[2:-2].replace("],\n" + deep + "[", "\n" + inner + "],\n" + inner + "[\n" + deep)
        out.append("[\n" + inner + "[\n" + deep + rows + "\n" + inner + "]\n" + pad + "]")
    else:
        sep = "[\n"
        for item in data:
            out.append(sep + inner)
            _encode(item, inner, out)
            sep = ",\n"
        out.append("\n" + pad + "]")


def _out_file(path: str) -> Path:
    """`path`, with its parent directory made."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, data) -> None:
    """Write `json.dumps(data, indent=2, sort_keys=True)` and a newline: the
    one JSON writer of every output."""
    out: list = []
    _encode(data, "", out)
    out.append("\n")
    path.write_text("".join(out))


def _reprs(values: np.ndarray) -> tuple[list, np.ndarray]:
    """repr of each distinct float in `values`, and per value the index of its
    own. Keyed by bit pattern, so -0.0 and 0.0 keep their own reprs."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return [repr(v) for v in bits.view(np.float64).tolist()], index


def _write_trace_csv(path: Path, metrics: RunMetrics, n: int) -> None:
    header = ["time"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(n)]
    block = np.column_stack((metrics.times, metrics.states, metrics.inputs))
    text, index = _reprs(block.ravel())
    cells = map(text.__getitem__, index.tolist())
    lines = map(",".join, zip(*[cells] * block.shape[1]))
    path.write_text("\n".join([",".join(header), *lines]) + "\n")


def _tail_text(tails: np.ndarray, directed_edges: list) -> list:
    """The CSV text of each record of `tails` (a trigger row after its time),
    from the comma on, formatted column by column: each edge and each distinct
    float of a column once, and a NaN (a jammed link's diff) left empty."""
    edges = tails["edge"].tolist()
    pairs = {e: "{},{}".format(*directed_edges[e]) for e in set(edges)}

    def floats(key):
        text, index = _reprs(tails[key])
        text = ["" if v == "nan" else v for v in text]
        return map(text.__getitem__, index.tolist())

    return list(map(",{},{:d},{},{},{},{},{},{}\n".format, map(pairs.__getitem__, edges),
                    tails["healthy"].tolist(), floats("diff"), tails["u"].tolist(),
                    *map(floats, ("theta", "eps", "rate", "floor"))))


def _write_events_csv(path: Path, metrics: RunMetrics) -> None:
    """One line per trigger row, from the log's blocks: each record of a block's
    tails, which a stretch's blocks share, and each distinct time of a block,
    is formatted once."""
    edges = metrics.directed_edges
    with path.open("w") as fh:
        fh.write("time,edge_i,edge_j,comm_healthy,diff,u,theta,eps,rate,dwell_floor\n")
        last = None
        for times, tails, codes in metrics.trigger_log.blocks():
            if tails is not last:
                text, last = _tail_text(tails, edges), tails
            stamps, index = _reprs(times)
            pieces = [""] * (2 * times.size)
            pieces[0::2] = map(stamps.__getitem__, index.tolist())
            pieces[1::2] = map(text.__getitem__, codes.tolist())
            fh.write("".join(pieces))


def _metrics_summary(metrics: RunMetrics) -> dict:
    return {
        "entry_time": metrics.entry_time,
        "converged": metrics.converged,
        "delta": metrics.delta,
        "final_states": [float(v) for v in metrics.states[-1]],
        "final_spread": float(metrics.spread_series[-1]) if metrics.spread_series.size else None,
        "final_v": float(metrics.v_series[-1]) if metrics.v_series.size else None,
        "trigger_count": len(metrics.trigger_log),
        "channel_stats": metrics.channel_stats,
    }


def _run_instance(scen: Scenario, name: str, channels, outdir: Path) -> dict:
    cfg = scen.engine_config(name, channels)
    metrics = Simulation(cfg).run()
    _write_trace_csv(outdir / f"{name}_trace.csv", metrics, scen.topology.node_count)
    _write_events_csv(outdir / f"{name}_events.csv", metrics)
    summary = _metrics_summary(metrics)
    _write_json(outdir / f"{name}_metrics.json", summary)
    return summary


def cmd_run(args) -> int:
    scen = load_scenario(args.scenario)
    if args.mode:
        scen = scen.with_mode(args.mode)
    if args.seed is not None:
        scen = scen.with_seed(args.seed)
    names = list(scen.instances) if args.instance == "all" else [args.instance]
    if names[0] not in scen.instances:  # before any output is written
        raise ConfigError(f"scenario has no '{args.instance}' instance")
    channels = scen.build_channels()
    outdir = Path(args.out or (Path(args.scenario).stem + ".out"))
    outdir.mkdir(parents=True, exist_ok=True)
    if channels is not None:
        _write_json(outdir / "attack_trace.json", channels.to_dict())

    summary = {
        "scenario": str(args.scenario),
        "mode": scen.mode,
        "seed": scen.seed,
        "instances": {},
    }
    for name in names:
        summary["instances"][name] = _run_instance(scen, name, channels, outdir)
    if scen.mode != "nominal" or scen.has_attacks:
        summary["certificate"] = scen.certificate()
    _write_json(outdir / "summary.json", summary)
    print(f"wrote {outdir}/summary.json")
    for name, s in summary["instances"].items():
        entry = "never" if s["entry_time"] is None else f"{s['entry_time']:.4f}"
        print(f"{name}: converged={s['converged']} entry_time={entry} "
              f"delta={s['delta']:.6g}")
    return 0


def cmd_design(args) -> int:
    scen = load_scenario(args.scenario)
    if args.mode:
        scen = scen.with_mode(args.mode)
    out = _out_file(args.out or Path(args.scenario).with_suffix(".certificate.json"))
    cert = scen.certificate()
    _write_json(out, cert)
    print(f"wrote {out}")
    print(f"design satisfied: {cert['satisfied']}")
    return 0 if cert["satisfied"] else 1


def cmd_attacks_generate(args) -> int:
    scen = load_scenario(args.scenario)
    if args.seed is not None:
        scen = scen.with_seed(args.seed)
    if scen.trace_file:
        raise ConfigError("attacks generate draws traces from the budgets; channels.trace_file "
                          "fixes them")
    if not scen.has_attacks:
        raise ConfigError("scenario defines no attack channels")
    out = _out_file(args.out or Path(args.scenario).with_suffix(".trace.json"))
    channels = scen.build_channels()
    _write_json(out, channels.to_dict())
    n_windows = sum(s.bounds.size for s in channels.sequences.values()) // 2
    print(f"wrote {out} ({len(channels.sequences)} channels, {n_windows} windows)")
    return 0


def cmd_attacks_verify(args) -> int:
    try:
        channels = read_channel_set(args.trace)
    except ConfigError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 1
    ok = True
    for key in sorted(channels.sequences):
        rep = verify_sequence(channels.sequences[key], channels.params[key])
        label = "/".join(str(k) for k in key)
        status = "ok" if rep.ok else "VIOLATION"
        print(f"{label}: {status} freq_slack={rep.frequency_slack:.6g} "
              f"dur_slack={rep.duration_slack:.6g}")
        for v in rep.violations:
            print(f"  {v}")
        ok = ok and rep.ok
    return 0 if ok else 1


def _fmt(value, spec: str) -> str:
    return "none" if value is None else format(value, spec)


def cmd_sweep(args) -> int:
    if not 0 < args.intensity < np.inf:
        raise ConfigError(f"--intensity must be > 0 and finite, got {args.intensity!r}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    scen = load_scenario(args.scenario)
    if scen.trace_file:
        raise ConfigError("sweep rescales generated traces; channels.trace_file fixes them")
    instance = args.instance
    if instance not in scen.instances:  # before any trace is generated
        raise ConfigError(f"scenario has no '{instance}' instance")
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    seeds = list(range(args.seeds))
    # no class, a repeated class, an unknown class or an infeasible class
    # budget is a configuration error before any run
    if not classes or len(set(classes)) < len(classes):
        raise ConfigError(f"--classes must name each class once, got {args.classes!r}")
    design = scen.design()
    for cls in classes:
        design.scaled_budgets(cls, args.intensity)
    out = _out_file(args.out) if args.out else None

    def median_entry(scale_class, intensity) -> tuple[float | None, int]:
        """Median entry time over the converged seeds (None if none converged)
        and the count of the others."""
        entries, missed = [], 0
        for s in seeds:
            ch = scen.with_seed(scen.seed + s).build_channels(scale_class, intensity)
            # engine_config reads the actuation bounds from `ch`, so a hardened
            # budget also shrinks the bound the input scaling is designed against
            entry = Simulation(scen.engine_config(instance, ch)).run().entry_time
            if entry is None:
                missed += 1
            else:
                entries.append(entry)
        return (statistics.median(entries) if entries else None), missed

    base_med, base_miss = median_entry(None, 1.0)
    result = {
        "scenario": str(args.scenario),
        "instance": instance,
        "intensity": args.intensity,
        "seeds": args.seeds,
        "baseline": {"median_entry_time": base_med, "unconverged": base_miss},
        "reduced": {},
    }
    for cls in classes:
        med, miss = median_entry(cls, args.intensity)
        gain = None if med is None or base_med is None else base_med - med
        result["reduced"][cls] = {
            "median_entry_time": med,
            "unconverged": miss,
            "improvement": gain,
        }
        print(f"{cls}: median entry {_fmt(med, '.4f')} (baseline {_fmt(base_med, '.4f')}, "
              f"improvement {_fmt(gain, '+.4f')})")
    if out:
        _write_json(out, result)
        print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mgconsensus",
        description="Self-triggered ternary consensus under DoS: simulate, "
                    "design, and audit attack traces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="simulate a scenario")
    pr.add_argument("scenario")
    pr.add_argument("--mode", choices=MODES)
    pr.add_argument("--seed", type=int)
    pr.add_argument("--instance", default="all")
    pr.add_argument("--out", help="output directory")
    pr.set_defaults(func=cmd_run)

    pd = sub.add_parser("design", help="compute the offline design certificate")
    pd.add_argument("scenario")
    pd.add_argument("--mode", choices=MODES)
    pd.add_argument("--out")
    pd.set_defaults(func=cmd_design)

    pa = sub.add_parser("attacks", help="attack-trace tooling")
    asub = pa.add_subparsers(dest="attacks_command", required=True)
    pg = asub.add_parser("generate", help="generate budget-satisfying traces")
    pg.add_argument("scenario")
    pg.add_argument("--seed", type=int)
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_attacks_generate)
    pv = asub.add_parser("verify", help="audit a trace file against its budgets")
    pv.add_argument("trace")
    pv.set_defaults(func=cmd_attacks_verify)

    ps = sub.add_parser("sweep", help="attack-reduction sweep over seeds")
    ps.add_argument("scenario")
    ps.add_argument("--classes", default="measurement,actuation,communication")
    ps.add_argument("--intensity", type=float, default=0.5,
                    help="multiply each swept class's eta and kappa by this and divide "
                         "its tau_f and tau_d by it; below 1/eta the class's traces hold "
                         "no windows, so on eta = 1 budgets any value below 1 removes it "
                         "(default 0.5)")
    ps.add_argument("--seeds", type=int, default=20)
    ps.add_argument("--instance", default="frequency")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reads are ConfigErrors: this is an output
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

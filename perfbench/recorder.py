"""Counters and spans at the calls into each mgconsensus layer.

The benchmark never edits the package. `install` replaces the public entry
points of the `scenario`, `attacks`, `design`, `engine` and `cli` modules with
wrappers that count the work each call did. A traced run (`timed=True`) also
records one span per call: name, tag, start, end, parent span and op id. Spans
stay in memory and are reduced to per-layer numbers when the run ends.

Untraced runs keep the counters, so both kinds of run report the same
deterministic counts; only the clock reads and span records differ, and the
difference in op time between the two is reported as the tracing overhead.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

MODES = ("nominal", "resilient-global", "resilient-local", "self-adaptive")


class Recorder:
    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[tuple] = []   # (name, tag, start, end, parent, op)
        self.counts: Counter = Counter()   # deterministic counts of the current op
        self.entries: list = []            # (entry_time, activation) per engine run of the op
        self.op = -1
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self.op += 1
        self.counts = Counter()
        self.entries = []

    def wrap(self, name, fn, count=None, tag=None):
        """Return `fn` wrapped so each call is counted and, if timed, spanned."""

        def wrapper(*args, **kwargs):
            if not self.timed:
                result = fn(*args, **kwargs)
            else:
                parent = self._stack[-1] if self._stack else -1
                idx = len(self.spans)
                self.spans.append(None)
                self._stack.append(idx)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans[idx] = (name, tag(args) if tag else "", start, end,
                                       parent, self.op)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper


# ---- counters -------------------------------------------------------------

def _count_windows(rec, args, seq):
    rec.counts["attacks.windows"] += len(seq.intervals)


def _count_verified(rec, args, report):
    rec.counts["attacks.verified_windows"] += len(args[0].intervals)
    rec.counts["attacks.violations"] += 0 if report.ok else 1


def _count_engine(rec, args, m):
    """Engine work of one run, from its RunMetrics and the ChannelSet it used.

    events = measurement + expiry + actuation + record + boundary. Boundaries
    are counted per channel the engine queries, so an undirected comm channel
    counts once per direction, as the event loop schedules it.
    """
    cfg = args[0].cfg
    st = m.channel_stats
    t_end = float(m.times[-1]) if m.times.size else 0.0
    boundaries = 0
    if cfg.channels is not None:
        seqs = cfg.channels.sequences
        keys = [(k, i) for i in range(cfg.topology.node_count) for k in ("meas", "act")]
        for i, j in cfg.topology.directed_edges():
            keys.append(("comm", i, j) if (cfg.per_direction_comm or i < j) else ("comm", j, i))
        for key in keys:
            seq = seqs.get(key)
            if seq is not None:
                boundaries += sum((s <= t_end) + (e <= t_end) for s, e in seq.intervals)
    triggers = len(m.trigger_log)
    events = (st["meas_ok"] + st["meas_fail"] + triggers + st["act_ok"] + st["act_fail"]
              + int(m.times.size) + boundaries)
    c = rec.counts
    c["engine.runs"] += 1
    c["engine.triggers"] += triggers
    c[f"engine.triggers.{cfg.mode}"] += triggers
    c["engine.events"] += events
    c[f"engine.events.{cfg.mode}"] += events
    c["engine.active_triggers"] += sum(1 for row in m.trigger_log if row[4] != 0)
    c["engine.act_retries"] += st["act_fail"]
    c["engine.comm_fail"] += st["comm_fail"]
    c["engine.comm_attempts"] += st["comm_ok"] + st["comm_fail"]
    c["engine.sim_ms"] += round(t_end * 1000)
    rec.entries.append((m.entry_time, cfg.activation_time))


def _count_attempts(rec, args, _report):
    rec.counts["attacks.witness_attempts"] += len(args[2])


def _count_csv(rows_of):
    def count(rec, args, _result):
        rec.counts["cli.write_rows"] += rows_of(args)
        rec.counts["cli.write_bytes"] += args[0].stat().st_size
    return count


def _count_json(rec, args, _result):
    rec.counts["cli.write_bytes"] += args[0].stat().st_size


def install(rec: Recorder, mg) -> None:
    """Wrap the public entry points of each layer of the imported package `mg`."""
    cli, scenario, attacks, engine = mg.cli, mg.scenario, mg.attacks, mg.engine
    patches = [
        (cli, "main", "cli.main", None, None),
        (cli, "load_scenario", "scenario.load", None, None),
        (scenario.Scenario, "build_channels", "scenario.build_channels", None, None),
        (scenario.Scenario, "certificate", "design.certificate", None, None),
        (attacks, "generate_sequence", "attacks.generate", _count_windows, None),
        (cli, "verify_sequence", "attacks.verify", _count_verified, None),
        (attacks, "podf_witness", "attacks.witness", _count_attempts, None),
        (engine.Simulation, "run", "engine.run", _count_engine, lambda a: a[0].cfg.mode),
        (cli, "_write_json", "cli.write", _count_json, lambda a: "json"),
        (cli, "_write_trace_csv", "cli.write", _count_csv(lambda a: a[1].times.size),
         lambda a: "csv"),
        (cli, "_write_events_csv", "cli.write", _count_csv(lambda a: len(a[1].trigger_log)),
         lambda a: "csv"),
    ]
    for owner, attr, name, count, tag in patches:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), count, tag))


# ---- per-layer reduction ----------------------------------------------------

def self_times(spans) -> tuple[Counter, Counter]:
    """Self time (duration minus child spans) summed by name and by name.tag."""
    child = [0.0] * len(spans)
    for name, tag, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: Counter = Counter()
    by_tag: Counter = Counter()
    for k, (name, tag, start, end, parent, op) in enumerate(spans):
        own = (end - start) - child[k]
        by_name[name] += own
        if tag:
            by_tag[f"{name}.{tag}"] += own
    return by_name, by_tag


def _per(x: float, n: float, scale: float = 1.0) -> float:
    return x * scale / n if n else 0.0


def per_layer(spans, totals: Counter, n_ops: int, traced_op_s: float,
              traced_op_rel: float) -> dict:
    """Per-layer metrics of a traced run: self seconds and counts per op, rates."""
    own, own_tag = self_times(spans)
    c = totals
    out = {
        "trace.op_s": (traced_op_s, "s"),
        "trace.op_rel": (traced_op_rel, "ref"),
        "scenario.load_s": (_per(own["scenario.load"], n_ops), "s"),
        "scenario.build_channels_s": (_per(own["scenario.build_channels"], n_ops), "s"),
        "design.certificate_s": (_per(own["design.certificate"], n_ops), "s"),
        "attacks.generate_s": (_per(own["attacks.generate"], n_ops), "s"),
        "attacks.windows": (_per(c["attacks.windows"], n_ops), "count"),
        "attacks.generate_us_per_window":
            (_per(own["attacks.generate"], c["attacks.windows"], 1e6), "us"),
        "attacks.verify_s": (_per(own["attacks.verify"], n_ops), "s"),
        "attacks.verify_us_per_window":
            (_per(own["attacks.verify"], c["attacks.verified_windows"], 1e6), "us"),
        "attacks.witness_s": (_per(own["attacks.witness"], n_ops), "s"),
        "attacks.witness_attempts": (_per(c["attacks.witness_attempts"], n_ops), "count"),
        "attacks.witness_us_per_attempt":
            (_per(own["attacks.witness"], c["attacks.witness_attempts"], 1e6), "us"),
        "engine.run_s": (_per(own["engine.run"], n_ops), "s"),
        "engine.runs": (_per(c["engine.runs"], n_ops), "count"),
        "engine.sim_s": (_per(c["engine.sim_ms"], n_ops, 1e-3), "s"),
        "engine.triggers": (_per(c["engine.triggers"], n_ops), "count"),
        "engine.events": (_per(c["engine.events"], n_ops), "count"),
        "engine.us_per_trigger": (_per(own["engine.run"], c["engine.triggers"], 1e6), "us"),
        "engine.us_per_event": (_per(own["engine.run"], c["engine.events"], 1e6), "us"),
    }
    for mode in MODES:
        t = own_tag[f"engine.run.{mode}"]
        out[f"engine.us_per_trigger.{mode}"] = (
            _per(t, c[f"engine.triggers.{mode}"], 1e6), "us")
        out[f"engine.us_per_event.{mode}"] = (_per(t, c[f"engine.events.{mode}"], 1e6), "us")
    out.update({
        "engine.active_trigger_frac":
            (_per(c["engine.active_triggers"], c["engine.triggers"]), "ratio"),
        "engine.act_retries": (_per(c["engine.act_retries"], n_ops), "count"),
        "engine.comm_fail_frac":
            (_per(c["engine.comm_fail"], c["engine.comm_attempts"]), "ratio"),
        "cli.main_s": (_per(own["cli.main"], n_ops), "s"),
        "cli.write_s": (_per(own["cli.write"], n_ops), "s"),
        "cli.write_mb": (_per(c["cli.write_bytes"], n_ops, 1e-6), "MB"),
        "cli.write_us_per_row": (_per(own_tag["cli.write.csv"], c["cli.write_rows"], 1e6), "us"),
        "bench.op_self_s": (_per(own["op"], n_ops), "s"),
    })
    return out

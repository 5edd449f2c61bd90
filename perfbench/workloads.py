"""The benchmark's workloads: seeded inputs, one op each, and per-op checks.

Each workload writes its inputs from the seed before timing starts; the
program sees only those files (and, for `ring4-modes`, the bundled scenario
plus `--seed`). An op is split into `act`, the timed calls into the package,
and `check`, the untimed verification of what they produced. `check` returns
the op's errors and a digest of its outputs; the runner requires the digest
and the op's counts to repeat exactly whenever the same op kind runs again.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import yaml

from recorder import MODES


def call_cli(mg, argv: list[str]) -> tuple[int, str]:
    """Run one `mgconsensus` command in-process; return exit code and output."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        rc = mg.cli.main(argv)
    return rc, buf.getvalue()


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _bundled(root: Path) -> dict:
    with open(root / "scenarios" / "ring4_dos.yaml") as fh:
        return yaml.safe_load(fh)


def _write_yaml(path: Path, data: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(data, sort_keys=True))
    return path


class Ring4Modes:
    """`mgconsensus run` on the bundled ring-4 scenario, one mode per op.

    Engine and writers split the time and attack generation is trivial, so a
    writer or per-trigger engine change shows here and an attack-algebra
    change does not.
    """

    name = "ring4-modes"
    kinds = MODES
    work_unit = "triggers"

    def __init__(self, mg, root: Path, work: Path, seed: int, tiny: bool):
        self.mg, self.seed = mg, seed
        self.scenario = root / "scenarios" / "ring4_dos.yaml"
        if tiny:
            data = _bundled(root)
            data.update(horizon=12.0, activation_time=1.0)
            self.scenario = _write_yaml(work / "ring4_tiny.yaml", data)
        self.out = work / "ring4-out"

    def act(self, mode: str):
        shutil.rmtree(self.out, ignore_errors=True)
        return call_cli(self.mg, ["run", str(self.scenario), "--mode", mode,
                                  "--seed", str(self.seed), "--out", str(self.out)])

    def check(self, mode: str, state, rec) -> tuple[list[str], str]:
        rc, text = state
        if rc != 0:
            return [f"run --mode {mode} exited {rc}: {text.strip()[-200:]}"], ""
        errors = []
        summary = json.loads((self.out / "summary.json").read_text())
        reported = sum(s["trigger_count"] for s in summary["instances"].values())
        if reported != rec.counts["engine.triggers"]:
            errors.append(f"summary.json reports {reported} triggers, "
                          f"the engine returned {rec.counts['engine.triggers']}")
        if summary["mode"] != mode:
            errors.append(f"summary.json mode {summary['mode']!r} != {mode!r}")
        return errors, dir_digest(self.out)

    @staticmethod
    def work(counts) -> int:
        return counts["engine.triggers"]


class Ring64Sweep:
    """`mgconsensus sweep --intensity 0.5` on a generated 64-node ring.

    Self-adaptive controllers, the bundled budgets, and an initial spread of
    2.5 delta, so every run has a real transient (entry near t=10 s). The seed
    sets the attack traces. No writers run; the engine dominates, and the
    frozen check scans the edges on every idle trigger, so graph size and the
    early-stop check show here.
    """

    name = "ring64-sweep"
    kinds = ("sweep",)
    work_unit = "triggers"
    # The horizon ends before the early stop can fire (the runs freeze near
    # t=35 s), so every op simulates a fixed span however the stop changes.
    horizon = 20.0
    spread_deltas = 2.5
    profile_seed = 0

    def __init__(self, mg, root: Path, work: Path, seed: int, tiny: bool):
        self.mg = mg
        n = 8 if tiny else 64
        data = _bundled(root)
        data.pop("mgs")
        data.update(seed=seed, horizon=self.horizon)
        data["topology"]["adjacency"] = [
            [1 if (j - i) % n in (1, n - 1) else 0 for j in range(n)] for i in range(n)
        ]
        delta = data["controller"]["eps"] * (n - 1)
        # One fixed random profile; the seed sets the attack traces. A fresh
        # profile per seed moved the work per op by +-25%, 5% jitter by +-7%,
        # and rotating the profile moved the cost per trigger by +-10%: the
        # frozen check scans edges in index order, so its cost depends on
        # where the last active edges sit.
        u = np.random.default_rng(self.profile_seed).uniform(size=n)
        u = (u - u.min()) / (u.max() - u.min())
        x0 = [float(v) for v in 50.0 + self.spread_deltas * delta * (u - 0.5)]
        # the bundled disturbances (t=30, 45) fall after the horizon
        data["instances"] = {"frequency": {"initial": x0, "reference": 50.0}}
        self.scenario = _write_yaml(work / f"ring{n}.yaml", data)
        # one seed and one class: baseline plus one reduced-budget run per op,
        # short enough for several ops in a run
        self.argv = ["sweep", str(self.scenario), "--intensity", "0.5",
                     "--seeds", "1", "--classes", "measurement"]

    def act(self, kind: str):
        return call_cli(self.mg, self.argv)

    def check(self, kind: str, state, rec) -> tuple[list[str], str]:
        rc, text = state
        if rc != 0:
            return [f"sweep exited {rc}: {text.strip()[-200:]}"], ""
        errors = [f"engine run entered the target set at {entry} (activation {act})"
                  for entry, act in rec.entries if entry is None or entry <= act]
        return errors, hashlib.sha256(text.encode()).hexdigest()

    @staticmethod
    def work(counts) -> int:
        return counts["engine.triggers"]


class LongAudit:
    """`attacks generate`, `attacks verify`, then `podf_witness`, at H=8,000.

    The bundled budgets on the ring-4 channels give about 7.5k windows over 12
    channels. At H=16,000 (15k windows) an op took about 5 s, and five such
    ops in a run did not give a steady median on a shared host. The engine and the run writers are absent, so this carries the
    generation, verification and witness algebra and nothing else.
    """

    name = "long-audit"
    kinds = ("audit",)
    work_unit = "windows"
    full_horizon = 8_000.0
    full_windows = 7_500       # what the full horizon is sized to yield
    witness_channels = 3
    lead_s = 0.5               # the attempt train starts this long before a window

    def __init__(self, mg, root: Path, work: Path, seed: int, tiny: bool):
        self.mg, self.seed = mg, seed
        horizon = 1_000.0 if tiny else self.full_horizon
        self.min_windows = 0.5 * self.full_windows * horizon / self.full_horizon
        self.attempts = 500 if tiny else 5_000
        data = _bundled(root)
        data.update(horizon=horizon, seed=seed)
        self.scenario = _write_yaml(work / "long_audit.yaml", data)
        self.trace = work / "long_audit.trace.json"

    def _witness_trains(self, channels):
        """Attempt trains at delta* on a few seed-chosen channels, each
        starting just before an attack window at least two attempts long, so
        the witness scan always sees a failed attempt."""
        keys = sorted(channels.sequences)
        picks = [keys[(self.seed + 5 * k) % len(keys)] for k in range(self.witness_channels)]
        for key in picks:
            seq, p = channels.sequences[key], channels.params[key]
            early = seq.intervals[: len(seq.intervals) // 2]
            long_ = [w for w in early if w[1] - w[0] >= 2.0 * p.delta_star]
            win = long_[self.seed % len(long_)]
            start = max(0.0, win[0] - self.lead_s)
            yield seq, p, start + p.delta_star * np.arange(self.attempts)

    def act(self, kind: str):
        gen = call_cli(self.mg, ["attacks", "generate", str(self.scenario),
                                 "--out", str(self.trace)])
        ver = call_cli(self.mg, ["attacks", "verify", str(self.trace)])
        attacks = self.mg.attacks
        channels = attacks.ChannelSet.from_dict(json.loads(self.trace.read_text()))
        reports = [attacks.podf_witness(seq, p, train)
                   for seq, p, train in self._witness_trains(channels)]
        return gen, ver, channels, reports

    def check(self, kind: str, state, rec) -> tuple[list[str], str]:
        (rc_g, out_g), (rc_v, out_v), channels, reports = state
        errors = []
        if rc_g != 0 or rc_v != 0:
            errors.append(f"generate exited {rc_g}, verify exited {rc_v}")
        windows = sum(len(s.intervals) for s in channels.sequences.values())
        if f"{len(channels.sequences)} channels, {windows} windows" not in out_g:
            errors.append(f"generate output disagrees with the trace: {out_g.strip()}")
        if windows != rec.counts["attacks.windows"]:
            errors.append(f"trace has {windows} windows, generation returned "
                          f"{rec.counts['attacks.windows']}")
        if windows < self.min_windows:
            errors.append(f"{windows} windows, sized for at least {self.min_windows:.0f}")
        lines = out_v.splitlines()
        ok = sum(1 for line in lines if line.split()[1:2] == ["ok"])
        if ok != len(channels.sequences) or "VIOLATION" in out_v:
            errors.append(f"verify passed {ok} of {len(channels.sequences)} traces")
        # a train may end inside a window, so unresolved attempts are allowed
        for r in reports:
            if not r.ok or r.n_failed == 0:
                errors.append(f"witness scan failed or saw no attack: {r}")
        h = hashlib.sha256(self.trace.read_bytes())
        h.update(out_v.encode() + repr(reports).encode())
        return errors, h.hexdigest()

    @staticmethod
    def work(counts) -> int:
        return counts["attacks.windows"]


WORKLOADS = {w.name: w for w in (Ring4Modes, Ring64Sweep, LongAudit)}

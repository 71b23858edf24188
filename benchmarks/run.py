#!/usr/bin/env python3
"""Benchmark of the marketval command-line tool.

Usage (from the repository root):

    python3 benchmarks/run.py --workload paper-105 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Every operation is a fresh ``python -m marketval.cli ...`` child process,
run by one client in a closed loop: the next command starts only after the
previous one has exited, so interpreter start-up and the numpy/scipy import
count, as they do for a user.  BLAS threading is left at the machine's
default.  Inputs are synthetic player CSVs generated from ``--seed``.

With ``--trace 0`` the run reports the end-to-end metrics: start-up time,
per-command wall latency (median and p75), input rows per second and peak
child memory.  With ``--trace 1`` each command also runs under
`traced_cli.py`, which wraps the public functions of every layer from the
outside, and the run reports per-layer call counts and self times, once
with the default BLAS threading (the metrics) and once with
``OPENBLAS_NUM_THREADS=1`` (a labelled side table in the results file).

Every output is checked: the first run of each (input, command) pair is
checked against independent oracles (`oracle.py`), and every later run
must exit 0 and write the same bytes.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full results, with the environment, go to
``.bench_work/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

MIN_SETUP_SAMPLES = 5  # timed interpreter start-ups per untraced run, at least
TRACED_FILES = 2  # inputs a traced run uses; it runs each pair three times
DEFAULT, ONE_THREAD = "default", "openblas_threads_1"  # BLAS settings of the children
OP_TIMEOUT_S = 60

# Flags of the CLI for the FilterConfig fields a command overrides.
FILTER_FLAGS = {"min_age": "--age-min", "max_age": "--age-max", "min_minutes": "--min-minutes"}


@dataclass(frozen=True)
class Command:
    label: str  # fit | select | diagnose: the metric prefix
    args: tuple[str, ...]  # subcommand and flags, without --input/--out
    filters: dict = field(default_factory=dict)  # FilterConfig overrides

    def argv(self, csv: Path, out: Path) -> list[str]:
        flags = [f for k, v in self.filters.items() for f in (FILTER_FLAGS[k], str(v))]
        return [*self.args, *flags, "--input", str(csv), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # rows of each input CSV
    files: int  # input CSVs rotated through in a run
    commands: tuple[Command, ...]


FIT, SELECT = Command("fit", ("fit",)), Command("select", ("select",))
# Players aged exactly 25 with 3000+ minutes: about 1.5% of the synthetic rows.
NARROW = {"min_age": 25, "max_age": 25, "min_minutes": 3000}

WORKLOADS = {
    # The paper's sample size: p ~ 88 leaves ~10 residual df, ~40 elimination
    # steps, small-df t tails; import dominates fit.
    "paper-105": Workload("paper-105", 105, 3, (
        FIT, SELECT, Command("diagnose", ("diagnose", "--select")))),
    # Tall design, p ~ 96: VIF's p auxiliary factorizations dominate diagnose,
    # and every elimination step refactors the 2000-row design.
    # The number of elimination steps varies with the data (8-24 at alpha
    # 0.1), so four inputs average it out.
    "model-2k": Workload("model-2k", 2000, 4, (
        FIT, SELECT, Command("diagnose", ("diagnose",)))),
    # Parsing, validation and encoding of 20 000 rows dominate every command;
    # one very tall QR in fit.  select and diagnose model only the narrow
    # subset, so elimination, VIF and tail changes barely reach this workload.
    "ingest-20k": Workload("ingest-20k", 20000, 2, (
        FIT, Command("select", ("select",), NARROW), Command("diagnose", ("diagnose",), NARROW))),
}

COMMANDS = ("fit", "select", "diagnose")
END_TO_END = (
    ("setup_s", "s"),
    *((f"{c}_{q}_s", "s") for c in COMMANDS for q in ("p50", "p75")),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)
EXACT = "count-exact"
_DIST = ("t_two_sided_p", "student_t_quantile", "f_sf", "chi2_sf")
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.exit_ms", "ms"),
    ("tracing.dump_ms", "ms"),
    ("ingest.parse_players_csv.calls", EXACT),
    ("ingest.parse_players_csv.ms", "ms"),
    ("ingest.apply_filters.ms", "ms"),
    ("ingest.rows_read", EXACT),
    ("ingest.rows_accepted", EXACT),
    ("features.encode_dataset.ms", "ms"),
    ("features.design_cols", EXACT),
    ("features.select_columns.calls", EXACT),
    ("features.select_columns.ms", "ms"),
    ("numcore.qr_pivoted.calls", EXACT),
    ("numcore.qr_pivoted.self_ms", "ms"),
    ("numcore.qr_pivoted.gflop_computed", "GFLOP-computed"),
    ("numcore.qr_pivoted.mb_computed", "MB-computed"),
    *((f"numcore.{f}.{k}", EXACT if k == "calls" else "ms")
      for f in ("least_squares_solve", "solve_from_factors", "unscaled_covariance")
      for k in ("calls", "ms")),
    *((f"distributions.{f}.{k}", EXACT if k == "calls" else "ms")
      for f in _DIST for k in ("calls", "self_ms")),
    ("ols.fit_ols.calls", EXACT),
    ("ols.fit_ols.self_ms", "ms"),
    ("selection.backward_eliminate.self_ms", "ms"),
    ("selection.steps", EXACT),
    *((f"diagnostics.{f}.{k}", "ms") for f in ("vif", "breusch_pagan", "plot_series")
      for k in ("ms", "self_ms")),
    ("diagnostics.vif.factorizations_per_entry", "ratio"),
    *((f"report.{f}.ms", "ms") for f in ("render_summary", "json_dumps", "plot_series_csv")),
    ("report.bytes_written", "B"),
    *((f"{layer}.self_ms", "ms") for layer in spans.LAYERS if layer != "cli"),
    ("tracing.wall_ms", "ms"),
    ("tracing.accounted_pct", "%"),
    ("tracing.overhead_pct", "%"),
)


# ---------------------------------------------------------------- inputs


def make_inputs(workload: Workload, seed: int, directory: Path, count: int | None = None) -> list[Path]:
    """Write the first `count` (default: all) of the workload's synthetic
    CSVs with ``marketval synth``; the same seed gives the same bytes.  The
    synth seed of input i is a hash of the workload's name, `seed` and i."""
    paths = []
    for i in range(workload.files if count is None else count):
        digest = hashlib.sha256(f"{workload.name}/{seed}/{i}".encode()).digest()
        out = directory / f"input{i}"
        argv = [sys.executable, "-m", "marketval.cli", "synth", "--n", str(workload.n),
                "--seed", str(int.from_bytes(digest[:8], "big") >> 1), "--out", str(out)]
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"marketval synth failed: {proc.stderr[-2000:]}")
        paths.append(out / "synth.csv")
    return paths


# ---------------------------------------------------------------- processes


def _on_alarm(signum, frame):
    raise TimeoutError(f"operation exceeded {OP_TIMEOUT_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which kills its child


@dataclass
class Op:
    start: float  # time.monotonic() just before the spawn
    end: float  # time.monotonic() just after the child was reaped
    code: int
    maxrss_kb: int

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list[str], env: dict, stderr_path: Path) -> Op:
    """Run one child to completion; its wall time covers spawn to reap.
    A child still running after OP_TIMEOUT_S is killed (exit code -9)."""
    with open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(start, end, proc.returncode, usage.ru_maxrss)


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


# ---------------------------------------------------------------- one run


@dataclass
class Pair:
    """One input file with one command, and the output bytes it must repeat."""

    csv: Path
    rows: int
    command: Command
    out: Path
    # Digest of the outputs of the first run under each BLAS setting: the
    # last bits of a tall factorization may depend on the thread count.
    digests: dict[str, str] = field(default_factory=dict)
    checked: set[str] = field(default_factory=set)  # digests queued for the oracle

    @property
    def name(self) -> str:
        return f"{self.command.label} on {self.csv.parent.name}"


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = WORK_ROOT / f"run-{workload.name}-{seed}-{int(trace)}-{os.getpid()}"
        self.envs = {DEFAULT: child_env(), ONE_THREAD: child_env(OPENBLAS_NUM_THREADS="1")}
        self.attempted = 0
        self.failed = 0  # ops that exited non-zero, changed their output or failed the oracle
        self.failures: list[str] = []  # what went wrong, failed ops and anything else
        self.blas_dependent: list[str] = []  # pairs whose bytes change with the thread count
        self.to_check: list[tuple[Pair, Path]] = []  # outputs for the oracle, kept aside

    # -- operations

    def _outputs_digest(self, out: Path) -> tuple[str, int]:
        h, size = hashlib.sha256(), 0
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            h.update(path.name.encode() + b"\0" + data)
            size += len(data)
        return h.hexdigest(), size

    def op(self, pair: Pair, blas: str = DEFAULT, spans_path: Path | None = None) -> tuple[Op, int]:
        """Run `pair` once, traced if `spans_path` is given, and check it:
        exit code 0, the same bytes as its first run under the same BLAS
        setting, and every distinct output kept for the oracle.  Returns the
        op and the bytes it wrote."""
        shutil.rmtree(pair.out, ignore_errors=True)
        pair.out.mkdir(parents=True)
        cli = pair.command.argv(pair.csv, pair.out)
        if spans_path is None:
            argv = [sys.executable, "-m", "marketval.cli", *cli]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), "--", *cli]
        self.attempted += 1
        result = spawn(argv, self.envs[blas], self.work / "stderr.txt")
        digest, size = self._outputs_digest(pair.out)
        if result.code != 0:
            err = (self.work / "stderr.txt").read_text(errors="replace").strip()[-500:]
            self.fail(pair, f"exit {result.code}: {err}")
            return result, size
        if blas not in pair.digests:
            pair.digests[blas] = digest
            if digest != pair.digests.get(DEFAULT, digest):
                self.blas_dependent.append(pair.name)
        elif digest != pair.digests[blas]:
            self.fail(pair, "output bytes differ from the first run")
            return result, size
        if digest not in pair.checked:
            pair.checked.add(digest)
            kept = self.work / "checked" / str(len(self.to_check))
            shutil.copytree(pair.out, kept)
            self.to_check.append((pair, kept))
        return result, size

    def check_outputs(self) -> None:
        """Run `oracle.py` on every kept output, after the timed part.

        The oracle needs numpy and scipy and holds whole designs, so it runs
        in a child: the max-RSS the kernel reports for a child includes the
        memory of the process that spawned it, and this one must stay small."""
        jobs = [{"command": p.command.label, "out": str(kept), "csv": str(p.csv),
                 "filters": p.command.filters} for p, kept in self.to_check]
        jobs_path = self.work / "oracle_jobs.json"
        jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "oracle.py"), str(jobs_path)],
                              env=self.envs[DEFAULT], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"oracle.py failed: {proc.stderr[-2000:]}")
        for (pair, _), bad in zip(self.to_check, json.loads(proc.stdout)):
            if bad:
                self.fail(pair, *(f"oracle: {b}" for b in bad[:5]))

    def fail(self, pair: Pair, *why: str) -> None:
        self.failed += 1
        self.failures += [f"{pair.name}: {w}" for w in why]

    def import_cli(self) -> Op:
        """A fresh interpreter that imports marketval.cli and exits."""
        result = spawn([sys.executable, "-c", "import marketval.cli"], self.envs[DEFAULT],
                       self.work / "stderr.txt")
        if result.code != 0:
            raise RuntimeError("importing marketval.cli failed: "
                               + (self.work / "stderr.txt").read_text(errors="replace"))
        return result

    def setup(self) -> list[Pair]:
        """Inputs and warm-up ops.

        Untraced runs warm up each command once, on the first input; traced
        runs make one untraced op per pair, the baseline of the tracing
        overhead.  Warm-up ops are checked but count in no metric."""
        self.work.mkdir(parents=True)
        paths = make_inputs(self.workload, self.seed, self.work / "inputs",
                            TRACED_FILES if self.trace else None)
        self.import_cli()  # compiles the bytecode caches
        self.import_s = self.import_cli().wall
        pairs = [Pair(path, path.read_bytes().count(b"\n") - 1, cmd, self.work / "out" / f"{i}-{cmd.label}")
                 for i, path in enumerate(paths) for cmd in self.workload.commands]
        warm = pairs if self.trace else pairs[: len(self.workload.commands)]
        self.baseline_walls = [self.op(pair)[0].wall for pair in warm]
        return pairs

    # -- measurement

    def measure(self) -> dict:
        pairs = self.setup()
        metrics = self._measure_traced(pairs) if self.trace else self._measure_e2e(pairs)
        self.check_outputs()
        return metrics

    def _measure_e2e(self, pairs: list[Pair]) -> dict:
        """Whole rotations, each running every command once on every input,
        input by input, with interpreter start-ups timed before each input.

        The number of rotations is fixed up front from the warm-up timings
        so that every input weighs the same in every percentile, and the
        start-ups and commands of each rotation are spread over the whole
        run rather than bunched, since the host's speed drifts over seconds."""
        files = self.workload.files
        rotation_s = files * (sum(self.baseline_walls) + self.import_s)
        rotations = max(1, round(self.seconds / rotation_s))
        starts_per_input = math.ceil(MIN_SETUP_SAMPLES / (rotations * files))
        n_cmd = len(self.workload.commands)
        walls: dict[str, list[float]] = defaultdict(list)
        starts: list[float] = []
        rows = wall_total = 0.0
        peak_kb = 0
        for _ in range(rotations):
            for i in range(files):
                starts += [self.import_cli().wall for _ in range(starts_per_input)]
                for pair in pairs[i * n_cmd:(i + 1) * n_cmd]:
                    result, _ = self.op(pair)
                    walls[pair.command.label].append(result.wall)
                    rows += pair.rows
                    wall_total += result.wall
                    peak_kb = max(peak_kb, result.maxrss_kb)
        metrics = {"setup_s": statistics.median(starts)}
        for label, values in walls.items():
            metrics[f"{label}_p50_s"] = statistics.median(values)
            metrics[f"{label}_p75_s"] = p75(values)
        metrics["rows_per_s"] = rows / wall_total
        metrics["peak_rss_mb"] = peak_kb / 1024.0
        self.samples = {"rotations": rotations, "setup": len(starts),
                        **{label: len(v) for label, v in walls.items()}}
        return metrics

    def _measure_traced(self, pairs: list[Pair]) -> dict:
        """Rotations of traced ops, each pair once per BLAS setting, as many
        as fill `seconds` by the warm-up timings (at least one).  The
        untraced warm-up ops of `setup` are the baseline for the tracing
        overhead."""
        per_rotation: dict[str, list[dict]] = defaultdict(list)
        spans_path = self.work / "spans.json"
        rotations = max(1, round(self.seconds / (len(self.envs) * sum(self.baseline_walls))))
        for _ in range(rotations):
            for blas in self.envs:
                ops = []
                for pair in pairs:
                    result, size = self.op(pair, blas, spans_path)
                    if result.code == 0:
                        ops.append({**json.loads(spans_path.read_text()), "start": result.start,
                                    "end": result.end, "out_bytes": size})
                per_rotation[blas].append(layer_metrics(ops))
        untraced_ms = 1000.0 * sum(self.baseline_walls)
        for m in per_rotation[DEFAULT]:
            m["tracing.overhead_pct"] = 100.0 * (m["tracing.wall_ms"] - untraced_ms) / untraced_ms
        self.samples = {"rotations": len(per_rotation[DEFAULT])}
        one_thread = combine_rotations(per_rotation[ONE_THREAD], self.failures)
        del one_thread["tracing.overhead_pct"]  # no untraced single-thread baseline
        self.side_tables = {ONE_THREAD: one_thread}
        return combine_rotations(per_rotation[DEFAULT], self.failures)


def p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over `ops`: traced runs of one rotation, each
    with its spans, import time, spawn/reap times and bytes written."""
    m: dict[str, float] = defaultdict(float)
    main_total = 0.0
    vif_qr = vif_entries = 0
    for op in ops:
        sp = op["spans"]
        main = next(s for s in sp if s[spans.NAME] == "cli.main")
        main_total += main[spans.END] - main[spans.START]
        m["cli.import_ms"] += 1000.0 * (op["imported_at"] - op["start"])
        m["tracing.dump_ms"] += 1000.0 * (op["dumped_at"] - main[spans.END])
        m["cli.exit_ms"] += 1000.0 * (op["end"] - op["dumped_at"])
        m["tracing.wall_ms"] += 1000.0 * (op["end"] - op["start"])
        m["report.bytes_written"] += op["out_bytes"]
        for i, (s, self_s) in enumerate(zip(sp, spans.self_times(sp))):
            name, info = s[spans.NAME], s[spans.INFO]
            m[f"{name}.calls"] += 1
            m[f"{name}.ms"] += 1000.0 * (s[spans.END] - s[spans.START])
            m[f"{name}.self_ms"] += 1000.0 * self_s
            m[f"{name.split('.', 1)[0]}.self_ms"] += 1000.0 * self_s
            if name == "numcore.qr_pivoted":
                n, p = info
                m["numcore.qr_pivoted.gflop_computed"] += (2 * n * p * p - 2 * p**3 / 3) / 1e9
                m["numcore.qr_pivoted.mb_computed"] += 8 * n * p / 1e6
                vif_qr += spans.has_ancestor(sp, i, "diagnostics.vif")
            elif name == "ingest.parse_players_csv":
                m["ingest.rows_read"] += info
            elif name == "ingest.apply_filters":
                m["ingest.rows_accepted"] += info
            elif name == "features.encode_dataset":
                m["features.design_cols"] += info
            elif name == "selection.backward_eliminate":
                m["selection.steps"] += info
            elif name == "diagnostics.vif":
                vif_entries += info
    m["diagnostics.vif.factorizations_per_entry"] = vif_qr / vif_entries if vif_entries else 0.0
    untraced_part = m["tracing.wall_ms"] - m["cli.import_ms"] - m["tracing.dump_ms"]
    m["tracing.accounted_pct"] = 100.0 * (1000.0 * main_total + m["cli.exit_ms"]) / untraced_part
    return {name: float(m[name]) for name, _ in PER_LAYER if name in m}


def combine_rotations(rotations: list[dict], failures: list[str]) -> dict:
    """Median over rotations; exact counts must agree across all of them."""
    out = {}
    for name, unit in PER_LAYER:
        values = [r.get(name, 0.0) for r in rotations]
        if unit == EXACT and len(set(values)) > 1:
            failures.append(f"exact count {name} changed between rotations: {values}")
        out[name] = statistics.median(values) if values else 0.0
    return out


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    import importlib.metadata as md

    # numpy is imported in a child: this process stays small (see check_outputs).
    probe = subprocess.run(
        [sys.executable, "-c", "import json, numpy; print(json.dumps("
         "numpy.show_config(mode='dicts')['Build Dependencies']['blas']))"],
        capture_output=True, text=True)
    blas = json.loads(probe.stdout) if probe.returncode == 0 else {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": md.version("numpy"),
        "scipy": md.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset (one per core)"),
    }


def unit_of(name: str) -> str:
    return dict(END_TO_END + PER_LAYER)[name]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    r = Run(WORKLOADS[name], seed, seconds, trace)
    try:
        metrics = r.measure()
    finally:
        shutil.rmtree(r.work, ignore_errors=True)
    declared = [n for n, _ in (PER_LAYER if trace else END_TO_END)]
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"metric names {sorted(metrics)} differ from the declared {declared}")
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "samples": r.samples,
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": r.failed,
        "failures": r.failures,
        "outputs_differ_with_one_blas_thread": r.blas_dependent,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in declared},
    }
    if trace:
        result["labels"] = {label: {n: {"value": v, "unit": unit_of(n)} for n, v in table.items()}
                            for label, table in r.side_tables.items()}
    WORK_ROOT.mkdir(exist_ok=True)
    out = WORK_ROOT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print_report(result)
    return result


def print_report(result: dict) -> None:
    tables = {"default": result["metrics"], **result.get("labels", {})}
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"samples {result['samples']}  attempted {result['attempted']}  failed {result['failed']}  "
          f"error_rate {result['failed'] / max(1, result['attempted']):.4f}")
    for label, table in tables.items():
        if len(tables) > 1:
            print(f"-- {label}")
        for n, v in table.items():
            print(f"  {n:<44} {v['value']:>14.6g} {v['unit']}")
    for f in result["failures"]:
        print(f"  FAILED: {f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "marketval" / "cli.py").is_file():
        print(f"marketval sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        results = [run_workload(w, args.seed, args.seconds, trace)
                   for w in WORKLOADS for trace in (False, True)]
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{n}": v for r in results for n, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

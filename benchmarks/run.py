"""Time-to-verdict benchmark for aspcheck.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the code under test is the
checkout's ``src/`` (children get PYTHONPATH=src, PYTHONDONTWRITEBYTECODE=1).

With ``--trace 0`` a closed loop with one client (a CI job that waits for
each verdict before sending the next) repeats, until ``--seconds`` is
spent: ``aspcheck check`` on the workload spec (setup_s), ``aspcheck
validate`` on the workload (verdict_s, peak_rss_mb) and the README library
path in a fresh interpreter (lib_s).  Every output is checked against the
oracle in workloads.py.  With ``--trace 1`` the layers are timed in-process
instead (see inproc.py) and the spans are written to ``.bench_out/``.

Each repetition gets its own PYTHONHASHSEED, derived from the workload,
the seed and the repetition index, because set iteration order steers the
work in ``datalog.evaluate`` and the instance grouping.  ``host.calib_s``,
a fixed pure-Python loop, is printed beside every repetition to expose
slow phases of the host; it never rescales a reported metric.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See METRICS.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout clean, like the children
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
CONSOLE = "import sys; from aspcheck.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import aspcheck.cli;"
                " print(time.perf_counter() - t)")
CHILD_TIMEOUT_S = 150.0
SETUP_PER_REP = 3
MIN_REPS = 2

END_TO_END_UNITS = {"verdict_s": "s", "lib_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.main.s": "s", "cli.self_s": "s", "cli.cpu_s": "s", "cli.import_s": "s",
    "schema.load_spec.s": "s", "schema.check_spec.calls": "count", "schema.check_spec.s": "s",
    "hooks.parse_script.calls": "count", "hooks.parse_script.s": "s",
    "hooks.eval_instance.calls": "count", "hooks.eval_instance.s": "s",
    "hooks.eval_instance.failures": "count",
    "datalog.parse_program.calls": "count", "datalog.parse_program.rules": "count",
    "datalog.parse_program.s": "s", "datalog.evaluate.s": "s",
    "datalog.evaluate.atoms_out": "count", "datalog.evaluate.atoms_per_s": "1/s",
    "engine.run.s": "s", "engine.run.self_s": "s", "engine.check_instance.calls": "count",
    "engine.check_instance.self_s": "s", "engine.finalize.s": "s",
    "terms.sort_key.calls": "count", "terms.sort_key.s": "s",
    "terms.render.calls": "count", "terms.render.s": "s", "terms.render.useful_ratio": "ratio",
    "lib.terms.parse_facts.s": "s", "lib.terms.parse_facts.facts_per_s": "1/s",
    "lib.engine.run.s": "s",
    "diagnostics.render_report.s": "s", "diagnostics.records": "count",
    "trace.overhead_frac": "ratio", "host.calib_s": "s",
}


@dataclass
class Child:
    wall_s: float
    exit_code: int | None  # None: killed after the timeout
    stdout: str
    stderr: str
    maxrss_mb: float
    cpu_s: float


class Bench:
    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root, self.work = root, work
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def hash_seed(self, rep: int) -> int:
        return zlib.crc32(f"{self.workload}:{self.seed}:{rep}".encode())

    def env(self, rep: int) -> dict[str, str]:
        env = dict(os.environ)
        env.update(PYTHONPATH=str(self.root / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED=str(self.hash_seed(rep)))
        return env

    def spawn(self, argv: list[str], rep: int) -> Child:
        """Run one child to exit; wall time from spawn to reaping, rusage from wait4."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env(rep), cwd=self.work)
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
                if not exited:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, proc.returncode if exited else None,
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     err_path.read_text(encoding="utf-8", errors="replace"),
                     usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)

    def judge(self, what: str, expected: workloads.Workload, exit_code, stdout: str) -> bool:
        """Count one validation against the oracle; record why it failed."""
        self.attempted += 1
        reason = workloads.check(expected, exit_code, stdout)
        if reason is not None:
            self.failed += 1
            self.problems.append(f"{what}: {reason}")
        return reason is None

    def write(self, wl: workloads.Workload, tag: str) -> tuple[str, str]:
        """The inputs aspcheck sees, and beside them the oracle's expectation."""
        spec, data = self.work / f"{tag}.yaml", self.work / f"{tag}.lp"
        spec.write_text(wl.spec, encoding="utf-8")
        data.write_text(wl.data, encoding="utf-8")
        (self.work / f"{tag}.expected.json").write_text(json.dumps(wl.expectation()),
                                                       encoding="utf-8")
        return str(spec), str(data)

    def validate_argv(self, wl: workloads.Workload, spec: str, data: str) -> list[str]:
        return ["-c", CONSOLE, "validate", *wl.flags, spec, data]

    def self_test(self) -> bool:
        """A miniature of the workload with a wrong expectation must be caught."""
        bad = workloads.tampered(self.workload, self.seed)
        spec, data = self.write(bad, "tampered")
        child = self.spawn(self.validate_argv(bad, spec, data), 0)
        caught = workloads.check(bad, child.exit_code, child.stdout) is not None
        if not caught:
            self.problems.append("self-test: a tampered expectation was not caught")
        return caught

    def setup_once(self, spec: str, rep: int) -> float:
        child = self.spawn(["-c", CONSOLE, "check", spec], rep)
        if child.exit_code != 0 or child.stdout:
            self.problems.append(f"setup: aspcheck check exited {child.exit_code}"
                                 f" {child.stderr.strip()[:200]!r}")
        return child.wall_s

    def lib_once(self, wl, spec: str, data: str, rep: int) -> float | None:
        child = self.spawn([str(HERE / "inproc.py"), "lib", spec, data, json.dumps(wl.flags)], rep)
        try:
            result = json.loads(child.stdout)
        except ValueError:
            self.judge("lib", wl, None, child.stderr[-300:])
            return None
        self.judge("lib", wl, result["exit_code"], result["stdout"])
        return result["lib_s"]


def calibrate() -> float:
    """A fixed pure-Python loop: host speed, independent of aspcheck."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def measure(bench: Bench, wl: workloads.Workload, seconds: float) -> dict:
    spec, data = bench.write(wl, "workload")
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    cpu, calib = [], []
    start = time.perf_counter()
    rep = 0
    while True:
        rep_start = time.perf_counter()
        setups = [bench.setup_once(spec, rep) for _ in range(SETUP_PER_REP)]
        child = bench.spawn(bench.validate_argv(wl, spec, data), rep)
        ok = bench.judge("validate", wl, child.exit_code, child.stdout)
        lib_s = bench.lib_once(wl, spec, data, rep)
        calib.append(calibrate())
        samples["setup_s"].extend(setups)
        samples["verdict_s"].append(child.wall_s)
        samples["peak_rss_mb"].append(child.maxrss_mb)
        cpu.append(child.cpu_s)
        if lib_s is not None:
            samples["lib_s"].append(lib_s)
        print(f"rep {rep} hashseed={bench.hash_seed(rep)} verdict_s={child.wall_s:.4f}"
              f" exit={child.exit_code} ok={ok} cpu_s={child.cpu_s:.4f}"
              f" peak_rss_mb={child.maxrss_mb:.1f}"
              f" lib_s={'failed' if lib_s is None else f'{lib_s:.4f}'}"
              f" setup_s={','.join(f'{s:.4f}' for s in setups)}"
              f" host.calib_s={calib[-1]:.4f}", flush=True)
        rep += 1
        now = time.perf_counter()
        if rep >= MIN_REPS and now + (now - rep_start) > start + seconds:
            break
    for name, unit in END_TO_END_UNITS.items():
        median, q1, q3 = summary(samples[name] or [float("nan")])
        print(f"{name} median={median:.4f} q1={q1:.4f} q3={q3:.4f}"
              f" n={len(samples[name])} {unit}")
    median, q1, q3 = summary(cpu)
    print(f"cli.cpu_s median={median:.4f} q1={q1:.4f} q3={q3:.4f} n={len(cpu)} s (not gated)")
    print(f"host.calib_s median={statistics.median(calib):.4f} n={len(calib)} s (not gated)")
    print(f"failed_frac {bench.failed / max(bench.attempted, 1):.4f} ratio"
          f" ({bench.failed} of {bench.attempted} validations)")
    return {name: summary(values)[0] for name, values in samples.items() if values}


def trace(bench: Bench, wl: workloads.Workload) -> dict:
    spec, data = bench.write(wl, "workload")
    calib = [calibrate()]
    child = bench.spawn(bench.validate_argv(wl, spec, data), 0)
    bench.judge("validate", wl, child.exit_code, child.stdout)
    imports = []
    for _ in range(3):
        probe = bench.spawn(["-c", IMPORT_PROBE], 0)
        imports.append(float(probe.stdout) if probe.exit_code == 0 else float("nan"))
    out_dir = bench.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{bench.workload}-seed{bench.seed}.json"
    print(f"trace hashseed={bench.hash_seed(0)}")
    traced = bench.spawn([str(HERE / "inproc.py"), "trace", spec, data,
                          json.dumps(wl.flags), str(spans)], 0)
    calib.append(calibrate())
    try:
        result = json.loads(traced.stdout)
    except ValueError:
        bench.judge("trace", wl, None, traced.stderr[-300:])
        return {}
    for leg, (code, out) in result["outputs"].items():
        bench.judge(f"in-process {leg}", wl, code, out)
    metrics = dict(result["metrics"])
    metrics["cli.cpu_s"] = child.cpu_s
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["host.calib_s"] = statistics.median(calib)
    for name in PER_LAYER_UNITS:
        base = result["bases"].get(name)
        print(f"{name} {metrics.get(name)} {PER_LAYER_UNITS[name]}"
              + (f" (base: {base})" if base else ""))
    print(f"spans written to {spans.relative_to(bench.root)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aspcheck" / "cli.py").is_file():
        print("benchmark: run from the root of an aspcheck checkout (no src/aspcheck here)",
              file=sys.stderr)
        return 2

    wl = workloads.generate(args.workload, args.seed)
    print(f"workload {args.workload} seed={args.seed} {json.dumps(wl.notes)}"
          f" flags={' '.join(wl.flags) or '-'} expected exit={wl.exit_code}")
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work"))
    try:
        bench = Bench(root, work, args.workload, args.seed)
        caught = bench.self_test()
        print(f"self-test: tampered expectation caught={caught}")
        if args.trace:
            values, units = trace(bench, wl), PER_LAYER_UNITS
        else:
            values, units = measure(bench, wl, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"problem: {problem}")
    complete = all(name in values for name in units)
    result = {
        "correct": caught and bench.failed == 0 and not bench.problems and complete,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the ``octoplane-verify`` batch run.

    python3 perfbench/run.py --workload inversion --seed 0 --seconds 20 --trace 0
    python3 perfbench/selftest.py    # checks the harness itself in under a minute

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed or built.  Each workload is a fixed CLI
argument list (WORKLOADS) run as fresh processes with ``--seed <seed>``.
The users of ``octoplane-verify`` wait for one deterministic report, so the
end-to-end metrics are what that wait costs:

- ``wall_s``: median time spent in ``cli.main`` (the suites, rendering and
  writing the report) over the full runs started within ``--seconds``, at
  least one;
- ``setup_s``: median time from process launch to the first call into
  ``run_suite`` (interpreter, numpy, package import, module-level tables),
  over SETUP_PROBES processes that stop there plus every full run;
- ``peak_rss_mb``: median of the runs' maximum resident set size.

``attempted`` counts the checks run and ``failed`` those with status
``fail`` or ``error``; a run that crashes or exits with a code other than
0 or 1 counts every expected check as failed.  ``correct`` requires every
run's report, after ``report.strip_wall_times``, to be byte-identical and
consistent with its exit code.

With ``--trace 1`` the runs are followed by one traced run (spans.py); its
per-layer self times and counts are reported with ``trace.overhead_s``
(traced wall minus the untraced median) and the source line counts.

BLAS and OpenMP threads are pinned to 1 in every child (ENV_PINS); the
pins are printed with the provenance.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

# `--suite poisson` is not a workload: its power iterations take 19 to 370
# steps depending on the seed (seeds 0-18), and seed 19 does not converge in
# 500 steps and ends the run with NumericsError, so its wall time spreads by
# ~40% (quartile distance over median) across seeds.
WORKLOADS = {
    "cz_estimates": ("--suite", "cz", "--lambda", "1.0"),
    "inversion": ("--suite", "invert"),
    "geometry_forms": ("--suite", "geometry"),
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120
FAILED_STATUSES = ("fail", "error")


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Launch:
    """One child process: its set-up time, memory and sidecar (None if it crashed)."""

    setup_s: float | None
    peak_rss_mb: float
    data: dict | None

    @property
    def report(self) -> str | None:
        if self.data is None or self.data.get("exit_code") not in (0, 1):
            return None
        return self.data.get("report")


class Launcher:
    """Starts child processes from one checkout and waits for each to end."""

    def __init__(self, root: Path, work: Path, argv: tuple, seed: int):
        self.root, self.work = root, work
        self.cli_argv = list(argv) + ["--seed", str(seed)]
        self.env = dict(os.environ, **ENV_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self._ids = itertools.count()

    def launch(self, mode: str) -> Launch:
        n = next(self._ids)
        sidecar, report = self.work / f"{n}.sidecar.json", self.work / f"{n}.report.json"
        cmd = [sys.executable, str(self.root / "perfbench" / "child.py"), mode,
               str(sidecar), str(report), *self.cli_argv, "--out", str(report), "--quiet"]
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        data = None
        if proc.returncode == 0 and sidecar.is_file():
            data = json.loads(sidecar.read_text())
        setup_end = data and data.get("setup_end")
        return Launch(setup_s=setup_end - launched if setup_end else None,
                      peak_rss_mb=usage.ru_maxrss / 1024.0, data=data)

    def runs(self, seconds: float) -> list[Launch]:
        """Full runs until `seconds` have passed, at least one."""
        out: list[Launch] = []
        start = time.monotonic()
        while not out or time.monotonic() - start < seconds:
            out.append(self.launch("run"))
        return out


@dataclass
class Verdict:
    correct: bool
    attempted: int
    failed: int
    problems: list


def check_runs(launches: list[Launch], seed: int) -> Verdict:
    """The correctness gate and the failed-check count over one workload's runs."""
    problems = []
    parsed = []
    for i, run in enumerate(launches):
        if run.report is None:
            problems.append(f"run {i}: crashed or exited with code "
                            f"{run.data and run.data.get('exit_code')}")
            parsed.append(None)
            continue
        rep = json.loads(run.report)
        statuses = [c["status"] for c in rep["checks"]]
        expected_code = 0 if rep["overall_status"] == "pass" else 1
        if run.data["exit_code"] != expected_code:
            problems.append(f"run {i}: exit code {run.data['exit_code']} but "
                            f"overall_status {rep['overall_status']!r}")
        if rep["meta"].get("seed") != seed:
            problems.append(f"run {i}: report seed {rep['meta'].get('seed')} != {seed}")
        parsed.append(statuses)
    good = [run.report for run in launches if run.report is not None]
    if not good:
        raise BenchmarkError("no run produced a report: " + "; ".join(problems))
    if any(r != good[0] for r in good):
        problems.append("stripped reports differ between runs of the same seed")
    expected = len(json.loads(good[0])["checks"])
    attempted = sum(expected if s is None else len(s) for s in parsed)
    failed = sum(expected if s is None else sum(x in FAILED_STATUSES for x in s)
                 for s in parsed)
    return Verdict(not problems, attempted, failed, problems)


def code_lines(root: Path) -> dict:
    files = sorted((root / "src" / "octoplane").glob("*.py"))
    lines = {f"code.{f.stem}.lines": f.read_bytes().count(b"\n") for f in files}
    return {"code.src_lines": sum(lines.values()), **lines}


def commit(root: Path) -> str:
    """HEAD of the checkout's git directory, or 'unknown' without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def wall_samples(launches: list[Launch]) -> list[float]:
    return [r.data["wall_s"] for r in launches if r.report is not None]


@dataclass
class Measurement:
    values: dict
    units: dict
    samples: dict  # metric -> number of samples its median is taken over
    runs: list


def measure(launcher: Launcher, seconds: float) -> Measurement:
    """End-to-end metrics from SETUP_PROBES probes and full runs of `seconds`."""
    probes = [launcher.launch("probe") for _ in range(SETUP_PROBES)]
    runs = launcher.runs(seconds)
    setups = [p.setup_s for p in probes + runs if p.setup_s is not None]
    walls = wall_samples(runs)
    if not walls or not setups:
        raise BenchmarkError("no run completed")
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs if r.report is not None),
    }
    samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": len(walls)}
    return Measurement(values, END_TO_END_UNITS, samples, runs)


def measure_traced(launcher: Launcher, root: Path, seconds: float) -> Measurement:
    """Per-layer metrics from one traced run after untraced runs of `seconds`."""
    runs = launcher.runs(seconds)
    traced = launcher.launch("trace")
    walls = wall_samples(runs)
    if traced.report is None or not walls:
        raise BenchmarkError("the traced run or every untraced run failed")
    layers, code = traced.data["layers"], code_lines(root)
    values = {**layers, "trace.overhead_s": layers["trace.wall_s"] - statistics.median(walls),
              **code}
    units = {**spans.LAYER_METRIC_UNITS, "trace.overhead_s": "s", **dict.fromkeys(code, "lines")}
    return Measurement(values, units, {}, runs + [traced])


def provenance_line(root: Path, probe: Launch) -> str:
    prov = (probe.data or {}).get("provenance", {})
    pins = " ".join(f"{k}={v}" for k, v in ENV_PINS.items())
    return (f"provenance: commit={commit(root)} python={prov.get('python')} "
            f"numpy={prov.get('numpy')} blas={prov.get('blas')!r} "
            f"nproc={os.cpu_count()} {pins}")


@contextlib.contextmanager
def work_dir(root: Path, name: str):
    """A fresh scratch directory inside the checkout, removed on exit."""
    base = root / ".perfbench"
    work = base / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "octoplane" / "__init__.py").is_file():
        print(f"run.py: no octoplane sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    argv_w = WORKLOADS[args.workload]
    try:
        with work_dir(root, f"run-{os.getpid()}") as work:
            launcher = Launcher(root, work, argv_w, args.seed)
            print(f"workload {args.workload}: octoplane-verify {' '.join(argv_w)} "
                  f"--seed {args.seed} (--out <tmp> --quiet)")
            # the first probe also warms up: it byte-compiles the sources and fills the page cache
            print(provenance_line(root, launcher.launch("probe")))
            m = (measure_traced(launcher, root, args.seconds) if args.trace
                 else measure(launcher, args.seconds))
        verdict = check_runs(m.runs, args.seed)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for name, value in m.values.items():
        n = f" (median of {m.samples[name]})" if name in m.samples else ""
        print(f"{name} = {value!r} {m.units[name]}{n}")
    print(f"checks_failed = {verdict.failed} of {verdict.attempted} checks run "
          f"in {len(m.runs)} runs")
    for problem in verdict.problems:
        print(f"correctness: {problem}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": m.units[k]} for k, v in m.values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

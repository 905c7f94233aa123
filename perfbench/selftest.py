"""Fast self-test of the benchmark harness at tiny budgets.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes well under a minute.  It
runs the harness on a cut-down poisson suite (TINY) and checks that

- BENCHMARK.json names the workloads of run.WORKLOADS, and exactly the
  metrics, with their units, that run.py reports with and without tracing;
- the traced layer self times, report.render_s and suites.self_s add up to
  the traced wall, and no self time is negative;
- the tracer rebinds every octoplane module attribute that pointed at a
  traced function, and classifies gauss_2f1 calls by path;
- the correctness gate passes the real runs (traced included) and trips on
  a report changed on purpose, on an exit code that disagrees with the
  report, and on a crash, which counts every expected check as failed.

Exits 0 when every check holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import run
import spans

TINY = ("--suite", "poisson", "--lambda", "1.0", "--nmc", "2000", "--ngauss", "20")
SEED = 1


def check_gate(good: run.Launch, failures: list) -> None:
    def variant(**changes) -> run.Launch:
        return run.Launch(good.setup_s, good.peak_rss_mb, dict(good.data, **changes))

    rep = json.loads(good.report)
    n_checks = len(rep["checks"])
    n_failed = sum(c["status"] in run.FAILED_STATUSES for c in rep["checks"])
    rep["checks"][0]["measured"] = {"changed_on_purpose": 1.0}
    tampered = variant(report=json.dumps(rep, indent=2) + "\n")
    if run.check_runs([good, tampered], SEED).correct:
        failures.append("gate passed a report changed on purpose")
    if run.check_runs([variant(exit_code=1 - good.data["exit_code"])], SEED).correct:
        failures.append("gate passed an exit code that disagrees with the report")
    for name, broken in (("crash", run.Launch(None, 0.0, None)), ("exit code 3", variant(exit_code=3))):
        v = run.check_runs([good, broken], SEED)
        if v.correct or (v.attempted, v.failed) != (2 * n_checks, n_failed + n_checks):
            failures.append(f"a {name} counted as {v.failed} failed of {v.attempted}")


def check_tracer(root: Path, failures: list) -> None:
    sys.path.insert(0, str(root / "src"))
    tracer = spans.Tracer()
    tracer.install()
    if tracer.unwrapped_references():
        failures.append(f"unwrapped references: {tracer.unwrapped_references()}")
    from octoplane import special

    special.gauss_2f1(1.5, 2.0, 2.0, 0.3)
    special.gauss_2f1(0.5, 0.25, 1.75, 0.3)
    special.gauss_2f1(0.5, 0.25, 1.6, 0.9)
    paths = {p: tracer.counts[f"special.gauss_2f1.{p}.calls"]
             for p in ("binomial", "series", "connection")}
    if paths != {"binomial": 1, "series": 1, "connection": 1}:
        failures.append(f"gauss_2f1 path counts {paths}")


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    failures: list[str] = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    with run.work_dir(root, f"selftest-{os.getpid()}") as work:
        launcher = run.Launcher(root, work, TINY, SEED)
        launcher.launch("probe")
        plain = run.measure(launcher, 0)
        traced = run.measure_traced(launcher, root, 0)

    for section, m in (("end_to_end", plain), ("per_layer", traced)):
        declared = {x["name"]: x["unit"] for x in bench[section]}
        if m.units != declared:
            failures.append(f"{section}: reported {sorted(m.units.items())}, "
                            f"declared {sorted(declared.items())}")
    if not all(v > 0 for v in plain.values.values()):
        failures.append(f"an end-to-end metric is not positive: {plain.values}")

    v = traced.values
    self_times = [v[f"{layer}.self_s"] for layer in spans.LAYERS]
    total = sum(self_times) + v["report.render_s"] + v["suites.self_s"]
    if not math.isclose(total, v["trace.wall_s"], rel_tol=1e-9):
        failures.append(f"self times add up to {total!r}, traced wall is {v['trace.wall_s']!r}")
    if min(self_times + [v["report.render_s"], v["suites.self_s"]]) < 0:
        failures.append("negative self time")
    if traced.runs[-1].data["unwrapped"]:
        failures.append(f"traced run left {traced.runs[-1].data['unwrapped']} unwrapped")

    verdict = run.check_runs(plain.runs + traced.runs, SEED)
    if not verdict.correct:
        failures.append(f"gate failed the real runs: {verdict.problems}")
    check_gate(traced.runs[-1], failures)
    check_tracer(root, failures)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

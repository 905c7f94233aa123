"""One ``octoplane-verify`` process of the benchmark.

    python3 perfbench/child.py MODE SIDECAR REPORT [CLI ARGS...]

Runs ``octoplane.cli.main(CLI ARGS)`` from the checkout in the working
directory and writes a JSON sidecar with what the parent process cannot see
from outside:

- ``setup_end``: ``time.monotonic()`` at the first call into ``run_suite``;
  the parent subtracts its own launch time, so set-up covers interpreter
  start, the numpy and octoplane imports and the module-level tables;
- ``wall_s``: the time spent in ``cli.main``;
- ``exit_code`` and ``report``: the CLI's exit code and its JSON report
  (REPORT, which the CLI arguments must name with ``--out``) after
  ``report.strip_wall_times``.

MODE is ``probe`` (stop at the first call into ``run_suite``), ``run``, or
``trace`` (a run with spans around the layers; adds ``layers`` and
``unwrapped`` to the sidecar).  The sidecar is written only when the CLI
returns, so a crash leaves none.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    pass


def _provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k, "") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    mode, sidecar, report_path, *cli_argv = argv
    import octoplane

    src = (Path.cwd() / "src" / "octoplane").resolve()
    if Path(octoplane.__file__).resolve().parent != src:
        print(f"child: imported octoplane from {octoplane.__file__}, not {src}", file=sys.stderr)
        return 2

    from octoplane import cli
    from octoplane.report import strip_wall_times

    import spans

    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        tracer.install()

    marks: dict = {}
    run_suite = cli.run_suite

    def stamped_run_suite(config):
        marks.setdefault("setup_end", time.monotonic())
        if mode == "probe":
            raise _SetupDone
        return run_suite(config)

    spans.rebind({id(run_suite): stamped_run_suite})

    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    except _SetupDone:
        code = None
    wall_s = time.perf_counter() - start

    out = {"setup_end": marks.get("setup_end")}
    if mode == "probe":
        out["provenance"] = _provenance()
    else:
        report = Path(report_path)
        out.update(exit_code=code, wall_s=wall_s,
                   report=strip_wall_times(report.read_text()) if report.is_file() else None)
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall_s)
        out["unwrapped"] = tracer.unwrapped_references()
    Path(sidecar).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

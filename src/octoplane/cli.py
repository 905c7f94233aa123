"""Batch verification CLI.

    octoplane-verify --suite all --seed 7 --out report.json --format json

Flags: --suite, --lambda, --lmax, --rgrid, --tgrid, --nmc, --ngauss, --seed,
--tol.<check>=<value>, --out, --format, --config, --quiet.  A config file
holds key = value lines with the same keys apart from config and quiet;
flags override it, and SuiteConfig supplies every setting given by neither.
--quiet suppresses the summary lines on stderr.  Exit codes: 0 all checks
pass, 1 at least one check failed or a suite stopped on a numerical error
(an 'error' record; the report is still written), 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from .report import render_csv, render_json, summary_lines
from .suites import SUITE_NAMES, SuiteConfig, run_suite

def _parse_floats(text: str) -> tuple:
    try:
        vals = tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    if not vals:
        raise ValueError("empty numeric list")
    return vals


# config key -> (SuiteConfig field, also the flag's dest; converter)
_CONFIG_KEYS = {
    "suite": ("suite", str),
    "lambda": ("lambdas", _parse_floats),
    "lmax": ("l_max", int),
    "rgrid": ("r_grid", _parse_floats),
    "tgrid": ("t_grid", _parse_floats),
    "nmc": ("n_mc", int),
    "ngauss": ("n_gauss", int),
    "seed": ("seed", int),
    "out": ("out", str),
    "format": ("fmt", str),
}


def _read_config_file(path: str) -> dict:
    settings: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key.startswith("tol."):
                settings.setdefault("tol", {})[key[4:]] = float(val)
            elif key in _CONFIG_KEYS:
                settings[key] = val
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return settings


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="octoplane-verify",
        description="Run the numerical verification suites and emit a report.",
    )
    p.add_argument("--suite", choices=SUITE_NAMES, default=None)
    p.add_argument("--lambda", dest="lambdas", default=None, metavar="L1,L2,...",
                   help="spectral parameters (nonzero reals)")
    p.add_argument("--lmax", dest="l_max", type=int, default=None)
    p.add_argument("--rgrid", dest="r_grid", default=None, metavar="R1,R2,...")
    p.add_argument("--tgrid", dest="t_grid", default=None, metavar="T1,T2,...")
    p.add_argument("--nmc", dest="n_mc", type=int, default=None)
    p.add_argument("--ngauss", dest="n_gauss", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--quiet", action="store_true", help="suppress the summary lines")
    return p


def _extract_tol_flags(argv: list[str]) -> tuple[list[str], dict]:
    """Pull --tol.<check>=<value> tokens out of argv."""
    rest: list[str] = []
    tols: dict = {}
    for tok in argv:
        if tok.startswith("--tol."):
            body = tok[len("--tol."):]
            if "=" not in body:
                raise ValueError(f"expected --tol.<check>=<value>, got {tok!r}")
            check, val = body.split("=", 1)
            tols[check] = float(val)
        else:
            rest.append(tok)
    return rest, tols


def _parse(argv: list[str]) -> tuple[argparse.Namespace, SuiteConfig]:
    argv, tol_flags = _extract_tol_flags(argv)
    args = _build_parser().parse_args(argv)

    settings = _read_config_file(args.config) if args.config else {}
    tols = dict(settings.pop("tol", {}))
    tols.update(tol_flags)

    fields = {}
    for key, (name, conv) in _CONFIG_KEYS.items():
        if getattr(args, name) is not None:
            fields[name] = conv(getattr(args, name))
        elif key in settings:
            fields[name] = conv(settings[key])
    return args, SuiteConfig(tolerances=tols, **fields)


def build_config(argv: list[str]) -> SuiteConfig:
    return _parse(argv)[1]


def _keep_freed_heap() -> None:
    """Have the C allocator keep the heap that one block of a streamed pass
    frees for the next block.

    glibc sets its thresholds from the largest chunk freed so far; with the
    2,048-row blocks of the streamed passes they stay near 1 MiB (mmap) and
    2 MiB (trim), so the ~6 MiB of temporaries a block frees go back to the
    kernel and the next block faults them in again: ~80k page faults, 16%
    of the geometry suite's wall time and 20% of the cz suite's.  From here
    on, arrays under 4 MiB come from the heap and up to 16 MiB of free heap
    is kept; values do not change.  A C library without mallopt keeps its
    own policy."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)   # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args, config = _parse(argv)
    except SystemExit as exc:  # argparse errors carry code 2 already
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    _keep_freed_heap()
    report = run_suite(config)
    rendered = render_json(report) if config.fmt == "json" else render_csv(report)

    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(rendered)

    if not args.quiet:
        for line in summary_lines(report):
            print(line, file=sys.stderr)
    return 0 if report.overall_status == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())

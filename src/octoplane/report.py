"""Verification report data model and serialization.

A report is a list of check records.  Each record carries the verified
statement as a formula-style anchor string, a status, the measured
quantities, the tolerance applied (when the check is toleranced), sample
counts, the seed and its own wall time (the time since the previous record
of its suite).  Exact-inequality checks fail iff their violation count is
nonzero; toleranced checks fail iff the measured defect exceeds the
tolerance; 'measured' records never fail (they report constants the
estimates leave unnamed); an 'error' record stands for a suite that stopped
on a NumericsError, carries the message as its anchor, and fails the report.

JSON output is a single object {"meta": ..., "checks": [...]} with frozen
field names; CSV has one row per check under a fixed header.  Reruns with
identical config produce identical bytes apart from wall-time fields.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

__all__ = ["CheckResult", "VerificationReport", "render_json", "render_csv", "CSV_HEADER"]

CSV_HEADER = (
    "check_id",
    "anchor",
    "status",
    "measured",
    "tolerance",
    "n_samples",
    "seed",
    "wall_time",
)


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    status: str  # 'pass' | 'fail' | 'measured' | 'error'
    measured: dict = field(default_factory=dict)
    tolerance: float | None = None
    n_samples: int = 0
    seed: int = 0
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "measured": {k: self.measured[k] for k in sorted(self.measured)},
            "tolerance": self.tolerance,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "wall_time": self.wall_time,
        }


@dataclass
class VerificationReport:
    meta: dict
    checks: list

    @property
    def overall_status(self) -> str:
        return "fail" if any(c.status in ("fail", "error") for c in self.checks) else "pass"

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "overall_status": self.overall_status,
            "checks": [c.to_dict() for c in self.checks],
        }


def render_json(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def _measured_cell(measured: dict) -> str:
    return ";".join(f"{k}={measured[k]!r}" for k in sorted(measured))


def render_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for c in report.checks:
        w.writerow(
            [
                c.check_id,
                c.anchor,
                c.status,
                _measured_cell(c.measured),
                "" if c.tolerance is None else repr(c.tolerance),
                c.n_samples,
                c.seed,
                repr(c.wall_time),
            ]
        )
    return buf.getvalue()


def summary_lines(report: VerificationReport) -> list[str]:
    lines = []
    for c in report.checks:
        mark = {"pass": "PASS", "fail": "FAIL", "measured": "MEAS", "error": "ERR "}[c.status]
        key_vals = ", ".join(f"{k}={v:.6g}" for k, v in sorted(c.measured.items())[:4])
        lines.append(f"[{mark}] {c.check_id}: {c.anchor}" + (f"  ({key_vals})" if key_vals else ""))
    lines.append(f"overall: {report.overall_status}")
    return lines


def strip_wall_times(rendered_json: str) -> str:
    """Rendered JSON with wall-time fields zeroed and the host provenance
    dropped, for determinism diffs that compare results only."""
    obj = json.loads(rendered_json)
    for c in obj.get("checks", []):
        c["wall_time"] = 0.0
    obj.get("meta", {}).pop("total_wall_time", None)
    obj.get("meta", {}).pop("provenance", None)
    return json.dumps(obj, indent=2) + "\n"

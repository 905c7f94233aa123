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

JSON output is a single object {"meta": ..., "checks": [...]}; CSV has one
row per check.  The record fields come from CheckResult alone: its fields,
in order, are the JSON record keys and the CSV header.  'meta' holds the
SuiteConfig settings except tolerances, out and fmt, in declaration order,
then format_version, total_wall_time and provenance.  Reruns with identical
config produce identical bytes apart from wall-time fields.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields

__all__ = ["CheckResult", "VerificationReport", "render_json", "render_csv", "CSV_HEADER"]


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
        return {**asdict(self), "measured": dict(sorted(self.measured.items()))}


CSV_HEADER = tuple(f.name for f in fields(CheckResult))


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


def _csv_cell(value) -> str:
    """One CSV cell: text as is, None empty, floats by repr, other numbers by
    str, and the measured dict as k=repr(v) pairs joined by ';'."""
    if isinstance(value, dict):
        return ";".join(f"{k}={v!r}" for k, v in value.items())
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def render_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows([_csv_cell(v) for v in c.to_dict().values()] for c in report.checks)
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

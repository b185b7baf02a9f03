"""Run configuration and deterministic report serialization.

Reports must be byte-identical across runs with the same configuration,
so serialization is hand-rolled: fixed key order, floats rendered with
17 significant digits (a NaN or infinite float as null in JSON, which
has no such number, and as nan or inf in CSV), UTF-8, trailing newline.
Wall time is never part of the payload (the runner logs it to stderr
instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["RunConfig", "SuiteResult", "VerificationReport", "to_json", "to_csv"]

SCHEMA = 2  # report format version, written into every JSON and CSV report


@dataclass(frozen=True)
class RunConfig:
    model: str
    n: int = 2
    s: int = 1
    lam: float = 0.5
    points: int = 100
    tol_analytic: float = 1e-9
    tol_fd: float = 1e-6
    seed: int = 0
    suites: tuple = ()


@dataclass(frozen=True)
class SuiteResult:
    name: str
    anchor: str
    points: int
    max_residual: float
    tolerance: float
    direction: str           # "le": pass iff residual <= tol; "ge": witness
    verdict: str             # "pass" | "fail" | "error"
    error: Optional[str] = None


@dataclass(frozen=True)
class VerificationReport:
    schema: int
    config: RunConfig
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.results)


def _f(x: float) -> str:
    """Decimal float with 17 significant digits."""
    return format(float(x), ".17g")


def _jf(x: float) -> str:
    """A JSON number: _f(x), or null for a NaN or infinite x."""
    return _f(x) if math.isfinite(x) else "null"


def _s(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


def to_json(report: VerificationReport) -> str:
    cfg = report.config
    lines = ["{"]
    lines.append(f'  "schema": {report.schema},')
    lines.append('  "config": {')
    lines.append(f'    "model": {_s(cfg.model)},')
    lines.append(f'    "n": {cfg.n},')
    lines.append(f'    "s": {cfg.s},')
    lines.append(f'    "lambda": {_jf(cfg.lam)},')
    lines.append(f'    "points": {cfg.points},')
    lines.append(f'    "tol_analytic": {_jf(cfg.tol_analytic)},')
    lines.append(f'    "tol_fd": {_jf(cfg.tol_fd)},')
    lines.append(f'    "seed": {cfg.seed},')
    suites = ", ".join(_s(name) for name in cfg.suites)
    lines.append(f'    "suites": [{suites}]')
    lines.append("  },")
    lines.append('  "suites": [')
    rows = []
    for r in report.results:
        parts = [f'      "name": {_s(r.name)}',
                 f'      "anchor": {_s(r.anchor)}',
                 f'      "points": {r.points}',
                 f'      "max_residual": {_jf(r.max_residual)}',
                 f'      "tolerance": {_jf(r.tolerance)}',
                 f'      "direction": {_s(r.direction)}',
                 f'      "verdict": {_s(r.verdict)}']
        if r.error is not None:
            parts.append(f'      "error": {_s(r.error)}')
        rows.append("    {\n" + ",\n".join(parts) + "\n    }")
    lines.append(",\n".join(rows))
    lines.append("  ],")
    total = len(report.results)
    passed = sum(1 for r in report.results if r.verdict == "pass")
    failed = sum(1 for r in report.results if r.verdict == "fail")
    errors = sum(1 for r in report.results if r.verdict == "error")
    verdict = "pass" if report.passed else "fail"
    lines.append('  "summary": {')
    lines.append(f'    "total": {total},')
    lines.append(f'    "passed": {passed},')
    lines.append(f'    "failed": {failed},')
    lines.append(f'    "errors": {errors},')
    lines.append(f'    "verdict": {_s(verdict)}')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_csv(report: VerificationReport) -> str:
    cfg = report.config
    lines = [
        f"# schema={report.schema} model={cfg.model} n={cfg.n} s={cfg.s} lambda={_f(cfg.lam)} "
        f"points={cfg.points} seed={cfg.seed}",
        "name,anchor,points,max_residual,tolerance,direction,verdict",
    ]
    for r in report.results:
        anchor = r.anchor.replace(",", ";")
        lines.append(f"{r.name},{anchor},{r.points},{_f(r.max_residual)},"
                     f"{_f(r.tolerance)},{r.direction},{r.verdict}")
    return "\n".join(lines) + "\n"

"""Structured verification reports: JSON, markdown and two CSV tables.

Every check record carries a non-empty ``anchor`` string naming the exact
mathematical identity or experiment it exercises; the schema rejects
anchorless records and duplicate check names.  Reports are deterministic:
no timestamps, fixed key order, and a config hash in the environment stamp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@dataclass
class CheckRecord:
    name: str
    anchor: str
    kind: str = "assert"  # "assert" checks gate the exit code; "audit" rows report data
    samples: int = 0
    max_residual: float = float("nan")
    tolerance: float = float("nan")
    passed: bool = True
    details: dict = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "kind": self.kind,
            "samples": int(self.samples),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "details": self.details,
            "error": self.error,
        }


@dataclass
class VerificationReport:
    version: str
    seed: int
    config_hash: str
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        if not record.anchor.strip():
            raise InputError(f"check {record.name!r} has no anchor string")
        if any(r.name == record.name for r in self.records):
            raise InputError(f"duplicate check name {record.name!r}")
        self.records.append(record)

    @property
    def all_asserts_pass(self) -> bool:
        return all(r.passed for r in self.records if r.kind == "assert")

    def convention_audit(self) -> list[dict]:
        """Consolidated audit rows {identity, best convention, residuals}."""
        rows = []
        for r in self.records:
            rows.extend(r.details.get("audit_rows", []))
        return rows

    def to_dict(self) -> dict:
        return {
            "environment": {
                "version": self.version,
                "seed": self.seed,
                "config_hash": self.config_hash,
            },
            "summary": {
                "checks": len(self.records),
                "asserts_passed": sum(
                    1 for r in self.records if r.kind == "assert" and r.passed
                ),
                "asserts_failed": sum(
                    1 for r in self.records if r.kind == "assert" and not r.passed
                ),
                "audits": sum(1 for r in self.records if r.kind == "audit"),
                "all_asserts_pass": self.all_asserts_pass,
            },
            "convention_audit": self.convention_audit(),
            "checks": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False, default=_json_default) + "\n"

    def to_checks_csv(self) -> str:
        """One row per check: name, kind, samples, max residual, tolerance, passed."""
        lines = ["name,kind,samples,max_residual,tolerance,passed"]
        for r in self.records:
            lines.append(
                f"{r.name},{r.kind},{r.samples},{r.max_residual!r},{r.tolerance!r},{r.passed}"
            )
        return "\n".join(lines) + "\n"

    def to_residuals_csv(self) -> str:
        """Every detail leaf as a (check, key, value) row; keys are dotted/indexed paths."""
        lines = ["check,key,value"]

        def emit(check, key, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    emit(check, f"{key}.{k}", v)
            elif isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    emit(check, f"{key}[{i}]", v)
            elif isinstance(value, (int, float, np.floating, np.integer, bool, np.bool_)):
                lines.append(f"{check},{key},{float(value)!r}")
            else:
                lines.append(f"{check},{key},{value}")

        for r in self.records:
            for key, value in r.details.items():
                emit(r.name, key, value)
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "# Verification report",
            "",
            f"- version: {self.version}",
            f"- seed: {self.seed}",
            f"- config hash: `{self.config_hash}`",
            f"- result: {'PASS' if self.all_asserts_pass else 'FAIL'}",
            "",
            "| check | kind | samples | max residual | tolerance | status |",
            "|---|---|---|---|---|---|",
        ]
        for r in self.records:
            status = "error" if r.error else ("pass" if r.passed else "FAIL")
            if r.kind == "audit" and not r.error:
                status = "audit"
            lines.append(
                f"| {r.name} | {r.kind} | {r.samples} | {r.max_residual:.3e} "
                f"| {r.tolerance:.3e} | {status} |"
            )
        lines.append("")
        audit = self.convention_audit()
        if audit:
            lines.append("## Convention audit")
            lines.append("")
            lines.append("| identity | best | residual per convention |")
            lines.append("|---|---|---|")
            for row in audit:
                resid = ", ".join(
                    f"{k}: {v:.3e}" for k, v in row["residual_by_convention"].items()
                )
                lines.append(f"| {row['identity']} | {row['best_convention']} | {resid} |")
            lines.append("")
        for r in self.records:
            if not r.details and not r.error:
                continue
            lines.append(f"## {r.name}")
            lines.append("")
            lines.append(f"anchor: {r.anchor}")
            lines.append("")
            if r.error:
                lines.append(f"error: `{r.error}`")
                lines.append("")
            if r.details:
                lines.append("```json")
                lines.append(json.dumps(r.details, indent=2, sort_keys=False, default=_json_default))
                lines.append("```")
                lines.append("")
        return "\n".join(lines)


def config_hash(canonical_text: str) -> str:
    # imported here: hashlib maps OpenSSL's libcrypto, which only a config hash needs
    import hashlib

    return hashlib.sha256(canonical_text.encode()).hexdigest()[:16]

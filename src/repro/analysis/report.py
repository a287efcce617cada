"""Analysis report assembly and rendering (text and JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from .passes.base import Violation
from .spec import LeakageSpec
from .taint import Flow, TaintResult


@dataclass
class AnalysisReport:
    """Everything one analyzer run learned, plus the gate verdict."""

    spec: LeakageSpec
    flows: List[Flow] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    stale_documented: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    functions_analyzed: int = 0
    modules_analyzed: int = 0
    #: Incremental-run bookkeeping (mode, dirty counts). Deliberately NOT
    #: part of :meth:`to_dict`: findings must be byte-identical between a
    #: cold and a warm run over the same tree, and cache stats are not.
    cache_stats: Dict = field(default_factory=dict)

    @property
    def active_violations(self) -> List[Violation]:
        """Violations not suppressed by a baseline."""
        return [v for v in self.violations if not v.baselined]

    @property
    def exit_code(self) -> int:
        return 1 if self.active_violations else 0

    @property
    def documented_flows(self) -> List[Flow]:
        documented = self.spec.documented_pairs()
        return [f for f in self.flows if (f.taint, f.sink) in documented]

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.path,
            "package": self.spec.package,
            "modules_analyzed": self.modules_analyzed,
            "functions_analyzed": self.functions_analyzed,
            "flows": [
                {
                    "taint": f.taint,
                    "sink": f.sink,
                    "category": f.category,
                    "sink_callable": f.sink_callable,
                    "at": f"{f.function}:{f.line}",
                    "documented": (f.taint, f.sink) in self.spec.documented_pairs(),
                    "experiments": sorted(
                        {
                            e
                            for d in self.spec.documented
                            if (d.taint, d.sink) == (f.taint, f.sink)
                            for e in d.experiments
                        }
                    ),
                    "witness": f.witness,
                }
                for f in self.flows
            ],
            "violations": [
                {
                    "rule": v.rule,
                    "message": v.message,
                    "function": v.function,
                    "line": v.line,
                    "path": v.path,
                    "fingerprint": v.fingerprint,
                    "baselined": v.baselined,
                }
                for v in self.violations
            ],
            "stale_documented": self.stale_documented,
            "warnings": self.warnings,
            "ok": not self.active_violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines: List[str] = []
        lines.append(
            f"repro-lint: {self.spec.package} "
            f"({self.modules_analyzed} modules, "
            f"{self.functions_analyzed} functions) against {self.spec.path}"
        )
        documented = self.spec.documented_pairs()
        lines.append(f"flows observed: {len(self.flows)}")
        for flow in self.flows:
            mark = "documented" if (flow.taint, flow.sink) in documented else "NEW"
            lines.append(
                f"  [{mark:>10}] {flow.taint:<18} -> {flow.sink:<18} "
                f"({flow.category}) at {flow.function}:{flow.line}"
            )
        active = self.active_violations
        suppressed = len(self.violations) - len(active)
        if active:
            lines.append(f"violations: {len(active)}")
            for v in active:
                lines.append(f"  [{v.rule}] {v.message}")
        else:
            lines.append("violations: none")
        if suppressed:
            lines.append(f"baselined (suppressed): {suppressed}")
        for stale in self.stale_documented:
            lines.append(f"  warning: documented flow never observed: {stale}")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        lines.append("PASS" if not active else "FAIL")
        return "\n".join(lines)

    # -- cache payload -----------------------------------------------------

    def to_payload(self) -> Dict:
        """JSON-safe snapshot of the run for the full-tree cache layer.

        The spec is NOT serialized: a cache hit requires an identical spec
        file, so the driver reloads it from disk and gets the same object.
        """
        return {
            "flows": [
                {
                    "taint": f.taint,
                    "sink": f.sink,
                    "category": f.category,
                    "sink_callable": f.sink_callable,
                    "function": f.function,
                    "line": f.line,
                    "def_line": f.def_line,
                    "witness": list(f.witness),
                }
                for f in self.flows
            ],
            "violations": [
                {
                    "rule": v.rule,
                    "message": v.message,
                    "function": v.function,
                    "line": v.line,
                    "path": v.path,
                    "key": v.key,
                    "fingerprint": v.fingerprint,
                }
                for v in self.violations
            ],
            "stale_documented": list(self.stale_documented),
            "warnings": list(self.warnings),
            "functions_analyzed": self.functions_analyzed,
            "modules_analyzed": self.modules_analyzed,
        }

    @classmethod
    def from_payload(cls, spec: LeakageSpec, payload: Dict) -> "AnalysisReport":
        return cls(
            spec=spec,
            flows=[Flow(**f) for f in payload["flows"]],
            violations=[Violation(**v) for v in payload["violations"]],
            stale_documented=list(payload["stale_documented"]),
            warnings=list(payload["warnings"]),
            functions_analyzed=payload["functions_analyzed"],
            modules_analyzed=payload["modules_analyzed"],
        )


def build_report(
    spec: LeakageSpec,
    result: TaintResult,
    violations: List[Violation],
    stale: List[str],
    modules_analyzed: int,
    functions_analyzed: int,
) -> AnalysisReport:
    flows = sorted(result.flows.values(), key=lambda f: (f.sink, f.taint))
    return AnalysisReport(
        spec=spec,
        flows=flows,
        violations=violations,
        stale_documented=stale,
        warnings=list(result.warnings),
        modules_analyzed=modules_analyzed,
        functions_analyzed=functions_analyzed,
    )

"""Volume-flow pass: the statically-derived volume attack surface.

Poddar et al. (*Practical Volume-Based Attacks on Encrypted Databases*,
PAPERS.md) reconstruct range queries from *result sizes alone* — exactly
what the slow log's ``Rows_examined``, the obs counters, and the
per-statement spans persist; BigFoot (Pei & Shmatikov) does the same from
WAL record lengths. This pass turns that observation into a gate: with a
``volume_surface`` spec section present, the taint engine propagates a
size-provenance domain (``len()`` of tainted data, declared wall-clock
sources), and every volume flow into a *persisted* sink category must be
declared — with granularity and an E14+ experiment reference — or the
build fails. The declarations double as the machine-readable target list
(``volume_surface.json``) the volume-attack suite consumes.

Like ``key-hygiene``, the rule can never be baselined away: an undeclared
size channel is a new attack-surface entry, not a style nit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..spec import LeakageSpec
from ..taint import TaintResult
from .base import LintPass, PassContext, RuleMeta, Violation


def volume_flow_lint(ctx: PassContext) -> List[Violation]:
    spec, result = ctx.spec, ctx.result
    policy = spec.volume_surface
    if policy is None:
        return []
    vkinds = policy.volume_kinds()
    persisted = set(policy.categories)
    declared = policy.declared_pairs()
    violations: List[Violation] = []
    for (taint, sink_id), flow in sorted(result.flows.items()):
        if taint not in vkinds:
            continue
        if flow.category not in persisted:
            continue
        if (taint, sink_id) in declared:
            continue
        witness = "; ".join(flow.witness)
        violations.append(
            Violation(
                rule="volume-undeclared-flow",
                message=(
                    f"undeclared volume flow {taint} -> {sink_id} "
                    f"({flow.category}) at {flow.function}:{flow.line}: a "
                    "size/cardinality observable to the volume attacker — "
                    "declare it under volume_surface.declared with "
                    f"granularity + experiment, or fix the code [{witness}]"
                ),
                function=flow.function,
                line=flow.line,
                key=f"{taint}->{sink_id}",
            )
        )
    return violations


def stale_volume_declarations(
    spec: LeakageSpec, result: TaintResult
) -> List[str]:
    """Declared volume pairs the analyzer never observed (warnings)."""
    if spec.volume_surface is None:
        return []
    observed = set(result.flows)
    return sorted(
        f"{taint} -> {sink_id} (volume_surface declaration)"
        for (taint, sink_id) in spec.volume_surface.declared_pairs()
        if (taint, sink_id) not in observed
    )


def build_volume_surface(spec: LeakageSpec, flows) -> Optional[dict]:
    """The per-sink volume map that the E14+ attack suite consumes.

    ``flows`` is the report's flow list (taint/sink/category/function/line).
    ``observed_at`` is ``qualname+offset``, the offset counted from the
    function's ``def`` line, so edits elsewhere in a file do not move it.
    Returns ``None`` when the spec has no ``volume_surface`` section. The
    output is fully deterministic: sorted keys, no timestamps — CI diffs
    the committed file against a fresh run.
    """
    policy = spec.volume_surface
    if policy is None:
        return None
    vkinds = policy.volume_kinds()
    persisted = set(policy.categories)
    artifacts_by_sink: Dict[str, List[str]] = {}
    for art in spec.snapshot_artifacts:
        for sink_id in art.sinks:
            artifacts_by_sink.setdefault(sink_id, []).append(art.name)
    observed_at: Dict[tuple, str] = {}
    for flow in flows:
        if flow.taint in vkinds and flow.category in persisted:
            observed_at[(flow.taint, flow.sink)] = (
                f"{flow.function}+{flow.line - flow.def_line}"
            )
    sinks: Dict[str, dict] = {}
    for dec in policy.declared:
        for sink_id in dec.sinks:
            entry = sinks.setdefault(
                sink_id,
                {
                    "category": spec.sink_category(sink_id),
                    "artifacts": sorted(artifacts_by_sink.get(sink_id, [])),
                    "flows": [],
                },
            )
            entry["flows"].append(
                {
                    "taint": dec.taint,
                    "source": dec.source,
                    "granularity": dec.granularity,
                    "experiments": list(dec.experiments),
                    "observed_at": observed_at.get((dec.taint, sink_id)),
                    "note": dec.note,
                }
            )
    # Observed-but-undeclared flows are violations, but the map still lists
    # them so a stale-artifact diff surfaces them even if lint is skipped.
    declared_pairs = policy.declared_pairs()
    for (taint, sink_id), at in sorted(observed_at.items()):
        if (taint, sink_id) in declared_pairs:
            continue
        entry = sinks.setdefault(
            sink_id,
            {
                "category": spec.sink_category(sink_id),
                "artifacts": sorted(artifacts_by_sink.get(sink_id, [])),
                "flows": [],
            },
        )
        entry["flows"].append(
            {
                "taint": taint,
                "source": "UNDECLARED",
                "granularity": "UNDECLARED",
                "experiments": [],
                "observed_at": at,
                "note": "observed flow missing a volume_surface declaration",
            }
        )
    for entry in sinks.values():
        entry["flows"].sort(key=lambda f: (f["taint"], f["source"]))
    return {
        "version": 1,
        "package": spec.package,
        "sinks": {sink_id: sinks[sink_id] for sink_id in sorted(sinks)},
    }


VOLUME_PASS = LintPass(
    name="volume-flows",
    rules=(
        RuleMeta(
            id="volume-undeclared-flow",
            name="VolumeUndeclaredFlow",
            short_description=(
                "A size/cardinality value reaching a persisted sink "
                "without a volume_surface declaration (never baselinable)"
            ),
            spec_section="volume_surface",
            experiments=("E14",),
            example=(
                "def handle(rows, slow_log):\n"
                "    n = len(rows)              # volume.length born here\n"
                "    slow_log.log(entry(rows_examined=n))  # persisted:\n"
                "    # Poddar et al. reconstruct the range query from n\n"
            ),
        ),
    ),
    run=volume_flow_lint,
)

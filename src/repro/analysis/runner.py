"""Drives the rule set over a file tree and applies suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .callgraph import CallGraph, build_call_graph
from .config import AnalysisConfig, DEFAULT_CONFIG
from .core import (
    SYNTAX_RULE_ID,
    AnalysisResult,
    Finding,
    ModuleInfo,
    Rule,
    SourceModule,
    UnusedSuppression,
    assign_occurrences,
    iter_python_files,
)
from .rules_alias import AliasHazardRule
from .rules_concurrency import (
    AsyncBlockingRule,
    CoroutineMisuseRule,
    ForkSafetyRule,
    ResourceLifecycleRule,
    UnlockedSharedStateRule,
)
from .rules_config import ConfigCoherenceRule
from .rules_exports import ExportCoherenceRule, build_module_index
from .rules_numeric import DtypeDriftRule, NumericSafetyRule
from .rules_random import AmbientRandomnessRule
from .rules_swallow import ExceptionSwallowRule
from .rules_time import WallClockDurationRule

__all__ = ["ALL_RULES", "AnalysisContext", "default_rules", "run_analysis"]

#: Rule classes in id order — the catalog the CLI prints.
ALL_RULES: tuple[type[Rule], ...] = (
    AmbientRandomnessRule,
    ConfigCoherenceRule,
    DtypeDriftRule,
    AliasHazardRule,
    NumericSafetyRule,
    ExportCoherenceRule,
    ExceptionSwallowRule,
    WallClockDurationRule,
    AsyncBlockingRule,
    UnlockedSharedStateRule,
    ResourceLifecycleRule,
    ForkSafetyRule,
    CoroutineMisuseRule,
)


def default_rules() -> list[Rule]:
    return [cls() for cls in ALL_RULES]


@dataclass
class AnalysisContext:
    """Shared state every rule's ``check`` receives."""

    config: AnalysisConfig
    root: Path
    modules: list[SourceModule] = field(default_factory=list)
    module_index: dict[str, ModuleInfo] = field(default_factory=dict)
    call_graph: CallGraph | None = None


def run_analysis(paths: Sequence[Path | str], *,
                 root: Path | str | None = None,
                 rules: Sequence[Rule] | None = None,
                 config: AnalysisConfig | None = None,
                 select: Sequence[str] | None = None,
                 ignore: Sequence[str] | None = None) -> AnalysisResult:
    """Analyze ``paths`` and return kept findings (suppressions applied).

    ``root`` anchors the relative paths used in reports, baselines, and
    scope matching; it defaults to the current working directory.
    """
    root = Path(root) if root is not None else Path.cwd()
    config = config or DEFAULT_CONFIG
    active = list(rules) if rules is not None else default_rules()
    if select:
        wanted = {rule_id.upper() for rule_id in select}
        active = [rule for rule in active if rule.id in wanted]
    if ignore:
        unwanted = {rule_id.upper() for rule_id in ignore}
        active = [rule for rule in active if rule.id not in unwanted]

    context = AnalysisContext(config=config, root=root)
    for path in iter_python_files([Path(p) for p in paths]):
        context.modules.append(SourceModule.load(path, root))
    context.module_index = build_module_index(context.modules)
    context.call_graph = build_call_graph(context.modules)

    findings: list[Finding] = []
    suppressed = 0
    for module in context.modules:
        if module.syntax_error is not None:
            findings.append(Finding(
                rule=SYNTAX_RULE_ID, severity="error", path=module.rel,
                line=1, col=0,
                message=f"file does not parse: {module.syntax_error}",
                hint="fix the syntax error; no other rule can run",
                line_text=module.line_at(1)))
            continue
        for rule in active:
            for finding in rule.check(module, context):
                # The suppression comment lives on the reported line
                # (file-level suppressions apply everywhere).
                if module.is_suppressed(finding.rule, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)

    # Suppressions that excused nothing this run are stale: the debt
    # they covered is gone, so the comment must go too (otherwise it
    # would silently mask the next, unrelated violation on that line).
    # Only records naming at least one *active* rule can be judged —
    # a `--select` subset must not condemn the rest of the catalog.
    active_ids = {rule.id for rule in active} | {SYNTAX_RULE_ID}
    unused: list[UnusedSuppression] = []
    for module in context.modules:
        if module.syntax_error is not None:
            continue
        for record in module.suppressions:
            relevant = ("ALL" in record.rules
                        or bool(set(record.rules) & active_ids))
            if relevant and not record.used:
                unused.append(UnusedSuppression(
                    path=module.rel, line=record.lineno,
                    rules=tuple(sorted(record.rules)),
                    reason=record.reason))
    unused.sort(key=lambda u: (u.path, u.line))

    return AnalysisResult(findings=assign_occurrences(findings),
                          files_analyzed=len(context.modules),
                          suppressed=suppressed,
                          unused_suppressions=unused)

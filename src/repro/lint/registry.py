"""Rule registry: every lint rule self-registers at import time.

Two rule scopes share one id space:

* **file** rules are plain functions ``check(ctx) -> Iterable[(line,
  col, msg)]`` over a single :class:`~repro.lint.engine.ModuleContext`
  — the PR-3 model (``D``/``U``/``E``/``A``/``F`` families);
* **project** rules are functions ``check(project) -> Iterable[(path,
  line, col, msg, text)]`` over the whole-program
  :class:`~repro.lint.callgraph.ProjectContext` of linked module
  summaries — the semantic passes (``UD``/``DT``/``RT`` families).

The registry keys both by short id (``D001``, ``DT201``, ...) so the
engine, the CLI's ``--select`` and the suppression comments all speak
the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple, TYPE_CHECKING, Union

from ..errors import LintError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard only
    from .callgraph import ProjectContext
    from .engine import ModuleContext

#: What a file-scope rule's check function yields: (line, column, message).
RawViolation = Tuple[int, int, str]
#: What a project-scope rule yields: (path, line, column, message,
#: stripped source text of the flagged line).
RawProjectViolation = Tuple[str, int, int, str, str]
CheckFunction = Callable[["ModuleContext"], Iterable[RawViolation]]
ProjectCheckFunction = Callable[["ProjectContext"],
                                Iterable[RawProjectViolation]]


@dataclass(frozen=True)
class Rule:
    """One registered invariant check."""

    id: str  # short id used in suppressions and --select, e.g. "D001"
    name: str  # kebab-case slug, e.g. "unseeded-rng"
    family: str  # determinism | units | dimension | taint | round-trip | ...
    description: str  # one line: the invariant this rule guards
    check: Union[CheckFunction, ProjectCheckFunction]
    scope: str = "file"  # "file" | "project"

    def run(self, ctx: "ModuleContext") -> Iterable[RawViolation]:
        if self.scope != "file":
            raise LintError(f"rule {self.id} is project-scoped")
        return self.check(ctx)  # type: ignore[arg-type]

    def run_project(self, project: "ProjectContext"
                    ) -> Iterable[RawProjectViolation]:
        if self.scope != "project":
            raise LintError(f"rule {self.id} is file-scoped")
        return self.check(project)  # type: ignore[arg-type]


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, name: str, family: str, description: str,
         scope: str = "file") -> Callable[[Callable], Callable]:
    """Register ``check`` under ``rule_id`` (decorator)."""
    if scope not in ("file", "project"):
        raise LintError(f"rule {rule_id}: unknown scope {scope!r}")

    def register(check: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise LintError(f"duplicate lint rule id: {rule_id}")
        _REGISTRY[rule_id] = Rule(id=rule_id, name=name, family=family,
                                  description=description, check=check,
                                  scope=scope)
        return check

    return register


def get_rule(rule_id: str) -> Rule:
    """Look a rule up by id; unknown ids are a caller error."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(f"unknown lint rule: {rule_id!r} "
                        f"(known: {sorted(_REGISTRY)})") from None


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def file_rules() -> List[Rule]:
    return [r for r in all_rules() if r.scope == "file"]


def project_rules() -> List[Rule]:
    return [r for r in all_rules() if r.scope == "project"]

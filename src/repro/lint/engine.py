"""Lint engine: two-phase whole-program analysis.

**Phase 1 — per-file analysis**: each file is parsed once (stdlib
:mod:`ast` + :mod:`tokenize`, no third-party dependencies), every
*file-scope* rule runs over it, and :mod:`repro.lint.symbols` extracts
a module summary — call edges, taint sources, serialization surface,
and the semantic checks that cannot be decided without other files.
The product depends only on that file's bytes.

**Phase 2 — whole-program link**: the summaries are linked into a
:class:`~repro.lint.callgraph.ProjectContext` and every
*project-scope* rule runs over it.

Findings on a line can be suppressed inline —
``# repro-lint: disable=D001 <reason>`` on the flagged line (or
``disable-next-line=`` on the line above, or ``disable-file=``
anywhere for module-wide scope).  A suppression *must* carry a
justification after the rule list; a bare one is itself a violation
(``S001``), which is how "every suppression is justified" stays
mechanically true.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import LintError
from .registry import all_rules, file_rules, get_rule, project_rules, rule

# The S-family is emitted by the engine itself while processing
# suppression directives; registering the ids here keeps --list-rules,
# --select, and the unknown-rule check honest about them.
rule("S001", "unjustified-suppression", "suppression",
     "every suppression comment carries a justification")(lambda ctx: ())
rule("S002", "unknown-suppressed-rule", "suppression",
     "suppression comments only name registered rules")(lambda ctx: ())

#: Matches one suppression directive inside a comment.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-next-line|disable-file)"
    r"\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s+(?P<reason>\S.*))?$")

#: File-scope suppressions apply to every line of the module.
_FILE_SCOPE = 0


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location."""

    path: str  # posix path as reported (repo-relative when possible)
    line: int  # 1-based
    col: int  # 0-based
    rule_id: str
    message: str
    context: str  # stripped source line of the finding

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule_id} {self.message}")


@dataclass
class ModuleContext:
    """Everything a file-scope rule sees about one file."""

    path: str  # as reported in violations
    module: str  # dotted module name, e.g. "repro.core.mach"
    tree: ast.Module
    lines: List[str]  # raw source lines (no trailing newlines)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def statement_comment(self, node: ast.AST) -> str:
        """Concatenated ``#`` comment text on the node's physical lines.

        Naive (string-level) on purpose: rules use this to check for
        unit-doc comments like ``# J per round trip``, where a false
        positive inside a string literal is harmless.
        """
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", start) or start
        parts = []
        for lineno in range(start, end + 1):
            text = self.line_text(lineno)
            if "#" in text:
                parts.append(text.split("#", 1)[1])
        return " ".join(parts)


@dataclass
class _Suppression:
    """One parsed directive, tracked so misuse is itself reportable."""

    line: int  # line the directive applies to (0 = whole file)
    comment_line: int  # line the comment physically sits on
    rule_ids: Tuple[str, ...]
    reason: str


@dataclass
class LintReport:
    """The outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0  # findings absorbed by inline directives

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self) -> str:
        lines = [violation.render() for violation in self.violations]
        counts = self.counts_by_rule()
        summary = (f"{len(self.violations)} violation(s) across "
                   f"{self.files_checked} file(s)"
                   + (f"; {self.suppressed} suppressed inline"
                      if self.suppressed else ""))
        if counts:
            summary += "  [" + ", ".join(
                f"{rule_id}: {n}" for rule_id, n in counts.items()) + "]"
        lines.append(summary)
        return "\n".join(lines)


def _parse_suppressions(source: str, path: str) -> List[_Suppression]:
    """Extract every ``repro-lint:`` directive from real COMMENT tokens."""
    directives: List[_Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            if "repro-lint" not in token.string:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                raise LintError(
                    f"{path}:{token.start[0]}: malformed repro-lint "
                    f"directive: {token.string.strip()!r}")
            scope = match.group("scope")
            comment_line = token.start[0]
            if scope == "disable":
                target = comment_line
            elif scope == "disable-next-line":
                target = comment_line + 1
            else:  # disable-file
                target = _FILE_SCOPE
            rule_ids = tuple(part.strip().upper()
                             for part in match.group("rules").split(",")
                             if part.strip())
            directives.append(_Suppression(
                line=target, comment_line=comment_line,
                rule_ids=rule_ids, reason=match.group("reason") or ""))
    except tokenize.TokenError as exc:
        raise LintError(f"{path}: could not tokenize: {exc}") from exc
    return directives


def _module_name_for(path: str) -> str:
    """Best-effort dotted module name from a file path."""
    normalized = path.replace(os.sep, "/")
    marker = "/repro/"
    stem = normalized[:-3] if normalized.endswith(".py") else normalized
    if stem.endswith("/__init__"):
        stem = stem[: -len("/__init__")]
    index = stem.rfind(marker)
    if index >= 0:
        return "repro." + stem[index + len(marker):].replace("/", ".")
    if stem.endswith("/repro") or stem == "repro":
        return "repro"
    return stem.rsplit("/", 1)[-1]


# --------------------------------------------------------------------------
# Phase 1: per-file analysis
# --------------------------------------------------------------------------


def _suppression_maps(directives: List[_Suppression]
                      ) -> Dict[str, Any]:
    """(line -> rules, file-wide rules) maps, so link-time findings can
    honor inline directives without re-reading the file."""
    by_line: Dict[str, List[str]] = {}
    file_wide: Set[str] = set()
    for directive in directives:
        if directive.line == _FILE_SCOPE:
            file_wide.update(directive.rule_ids)
        else:
            bucket = by_line.setdefault(str(directive.line), [])
            for rule_id in directive.rule_ids:
                if rule_id not in bucket:
                    bucket.append(rule_id)
    return {"lines": by_line, "file": sorted(file_wide)}


def analyze_file(source: str, path: str, module: Optional[str] = None
                 ) -> Dict[str, Any]:
    """Phase 1 for one file: file-rule violations (post-suppression),
    the module summary, and the suppression maps, as a plain-JSON
    dict."""
    from .symbols import extract_summary  # deferred: symbols imports us

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc}") from exc
    ctx = ModuleContext(path=path,
                        module=module or _module_name_for(path),
                        tree=tree,
                        lines=source.splitlines())

    raw: List[Violation] = []
    for lint_rule in file_rules():
        for line, col, message in lint_rule.run(ctx):
            raw.append(Violation(path=path, line=line, col=col,
                                 rule_id=lint_rule.id, message=message,
                                 context=ctx.line_text(line)))

    directives = _parse_suppressions(source, path)
    kept = _apply_suppressions(raw, directives, ctx)
    suppressed = len(raw) - sum(1 for v in kept if v.rule_id not in
                                ("S001", "S002"))
    return {
        "violations": [
            {"line": v.line, "col": v.col, "rule": v.rule_id,
             "message": v.message, "context": v.context}
            for v in kept
        ],
        "suppressed": suppressed,
        "summary": extract_summary(tree, ctx.module, ctx.lines),
        "suppressions": _suppression_maps(directives),
    }


def _apply_suppressions(raw: List[Violation],
                        directives: List[_Suppression],
                        ctx: ModuleContext) -> List[Violation]:
    by_line: Dict[int, Set[str]] = {}
    for directive in directives:
        by_line.setdefault(directive.line, set()).update(directive.rule_ids)
    file_wide = by_line.get(_FILE_SCOPE, set())

    kept: List[Violation] = []
    for violation in raw:
        applicable = by_line.get(violation.line, set()) | file_wide
        if violation.rule_id not in applicable:
            kept.append(violation)

    # The directives themselves are checked: every suppression must
    # name known rules (S002) and carry a justification (S001).
    known = {lint_rule.id for lint_rule in all_rules()}
    for directive in directives:
        for rule_id in directive.rule_ids:
            if rule_id not in known:
                kept.append(Violation(
                    path=ctx.path, line=directive.comment_line, col=0,
                    rule_id="S002",
                    message=f"suppression names unknown rule {rule_id!r}",
                    context=ctx.line_text(directive.comment_line)))
        if not directive.reason.strip():
            kept.append(Violation(
                path=ctx.path, line=directive.comment_line, col=0,
                rule_id="S001",
                message="suppression without justification — say *why* "
                        "the invariant does not apply here",
                context=ctx.line_text(directive.comment_line)))
    kept.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return kept


# --------------------------------------------------------------------------
# Phase 2: whole-program link
# --------------------------------------------------------------------------


def _link_project(entries: Dict[str, Dict[str, Any]]
                  ) -> Tuple[List[Violation], int]:
    """Run every project-scope rule over the linked summaries.

    Returns (kept violations, count suppressed by inline directives).
    """
    from .callgraph import ProjectContext

    summaries = {path: entry["summary"] for path, entry in entries.items()}
    project = ProjectContext(summaries)
    kept: List[Violation] = []
    suppressed = 0
    for lint_rule in project_rules():
        for path, line, col, message, text in lint_rule.run_project(project):
            maps = entries[path].get("suppressions",
                                     {"lines": {}, "file": []})
            applicable = set(maps["lines"].get(str(line), []))
            applicable.update(maps["file"])
            if lint_rule.id in applicable:
                suppressed += 1
                continue
            kept.append(Violation(path=path, line=line, col=col,
                                  rule_id=lint_rule.id, message=message,
                                  context=text))
    return kept, suppressed


def _entry_violations(path: str, entry: Dict[str, Any]) -> List[Violation]:
    return [Violation(path=path, line=v["line"], col=v["col"],
                      rule_id=v["rule"], message=v["message"],
                      context=v.get("context", ""))
            for v in entry.get("violations", [])]


def _filter_select(violations: List[Violation],
                   select: Optional[Sequence[str]]) -> List[Violation]:
    if select is None:
        return violations
    wanted = set()
    for rule_id in select:
        get_rule(rule_id)  # unknown ids are a caller error, as before
        wanted.add(rule_id)
    return [v for v in violations if v.rule_id in wanted]


def lint_source(source: str, path: str = "<memory>",
                module: Optional[str] = None,
                select: Optional[Sequence[str]] = None) -> List[Violation]:
    """Lint one in-memory module through the *full* pipeline — file
    rules plus the project passes linked over this single module.

    Returns the violations that survive inline suppressions.
    ``select`` restricts the
    reported rule ids; the analysis itself always runs everything, so
    selection never changes what any rule could see.
    """
    entry = analyze_file(source, path=path, module=module)
    violations = _entry_violations(path, entry)
    project_violations, _ = _link_project({path: entry})
    violations.extend(project_violations)
    violations.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return _filter_select(violations, select)


# --------------------------------------------------------------------------
# File discovery and the driver
# --------------------------------------------------------------------------


def _iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames
                               if d not in ("__pycache__", ".git")]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            raise LintError(f"no such lint target: {path!r}")


def _display_path(path: str) -> str:
    """Repo-relative posix path when possible."""
    absolute = os.path.abspath(path)
    cwd = os.getcwd()
    if absolute.startswith(cwd + os.sep):
        absolute = absolute[len(cwd) + 1:]
    return absolute.replace(os.sep, "/")


def default_lint_root() -> str:
    """The installed ``repro`` package directory — what ``repro lint``
    checks when no paths are given."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint_paths(paths: Optional[Sequence[str]] = None,
               select: Optional[Sequence[str]] = None) -> LintReport:
    """Lint files/directories and return a :class:`LintReport`.

    ``select`` restricts the reported rule ids, as for
    :func:`lint_source`.
    """
    targets = list(paths) if paths else [default_lint_root()]
    report = LintReport()

    entries: Dict[str, Dict[str, Any]] = {}
    for filename in _iter_python_files(targets):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise LintError(f"cannot read {filename!r}: {exc}") from exc
        display = _display_path(filename)
        entries[display] = analyze_file(source, display,
                                        _module_name_for(display))

    all_violations: List[Violation] = []
    for display in sorted(entries):
        entry = entries[display]
        all_violations.extend(_entry_violations(display, entry))
        report.suppressed += entry.get("suppressed", 0)
        report.files_checked += 1

    project_violations, project_suppressed = _link_project(entries)
    all_violations.extend(project_violations)
    report.suppressed += project_suppressed
    all_violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    report.violations = _filter_select(all_violations, select)
    return report

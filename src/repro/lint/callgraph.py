"""Whole-program link: the shared symbol table + call graph.

Phase 2 of the analysis.  Takes every module summary produced by
:mod:`repro.lint.symbols` and links them into one
:class:`ProjectContext`:

* a project-wide function table keyed by qualified reference
  (``repro.core.mach.classify``, ``repro.fleet.engine.CohortAggregate
  .merge``), with a unique-method fallback for ``~name`` references
  whose receiver type phase 1 could not see;
* the determinism taint closure: a function is taint-producing if its
  body holds a source or it (transitively) calls one;
* the sink table — serialized result/aggregate classes — against
  which the recorded sink writes are judged.

Linking is cheap by construction: dict lookups over plain JSON
summaries, no re-parsing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from .registry import RawProjectViolation


class ProjectContext:
    """Linked view over all module summaries; what project rules see."""

    def __init__(self, summaries: Dict[str, Dict[str, Any]]) -> None:
        #: display path -> module summary (insertion order = sorted paths)
        self.summaries = dict(sorted(summaries.items()))
        self.functions: Dict[str, Dict[str, Any]] = {}
        self._fn_path: Dict[str, str] = {}
        self._method_index: Dict[str, List[str]] = {}
        self._plain_index: Dict[str, List[str]] = {}
        self._classes: Dict[str, Dict[str, Any]] = {}
        self._class_name_index: Dict[str, List[str]] = {}
        self.sinks: Set[str] = set()
        self.tainted: Dict[str, str] = {}
        self._link_findings: Dict[str, List[Dict[str, Any]]] = {}
        self._link()

    # -- table construction ------------------------------------------------

    def _link(self) -> None:
        for path, summary in self.summaries.items():
            for qualref, record in summary.get("functions", {}).items():
                self.functions[qualref] = record
                self._fn_path[qualref] = path
                short = record["name"]
                if record.get("class"):
                    self._method_index.setdefault(short, []).append(qualref)
                else:
                    self._plain_index.setdefault(short, []).append(qualref)
            for record in summary.get("classes", {}).values():
                qualref = record["qualref"]
                self._classes[qualref] = record
                short = qualref.rsplit(".", 1)[1]
                self._class_name_index.setdefault(short, []).append(qualref)
                if record.get("has_to_jsonable") and (
                        record.get("is_result")
                        or record.get("has_merge")):
                    self.sinks.add(qualref)
        self._close_taint()
        self._evaluate_sink_writes()

    # -- reference resolution ----------------------------------------------

    def resolve_ref(self, ref: str) -> Optional[str]:
        """Canonical function qualref for a phase-1 reference, if it
        resolves unambiguously."""
        if ref.startswith("~"):
            candidates = self._method_index.get(ref[1:], [])
            return candidates[0] if len(candidates) == 1 else None
        if ref in self.functions:
            return ref
        # Re-exported name: unique top-level function of the same name.
        short = ref.rsplit(".", 1)[1]
        candidates = self._plain_index.get(short, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_class(self, ref: str) -> Optional[str]:
        if ref in self._classes:
            return ref
        short = ref.rsplit(".", 1)[1]
        candidates = self._class_name_index.get(short, [])
        return candidates[0] if len(candidates) == 1 else None

    # -- taint closure ------------------------------------------------------

    def _close_taint(self) -> None:
        for qualref, record in self.functions.items():
            sources = record.get("sources", [])
            if sources:
                self.tainted[qualref] = sources[0]["reason"]
        changed = True
        while changed:
            changed = False
            for qualref, record in self.functions.items():
                if qualref in self.tainted:
                    continue
                for ref in record.get("calls", []):
                    callee = self.resolve_ref(ref)
                    if callee is not None and callee in self.tainted \
                            and callee != qualref:
                        self.tainted[qualref] = (
                            f"calls {callee} "
                            f"[{self.tainted[callee]}]")
                        changed = True
                        break

    # -- link-time findings -------------------------------------------------

    def _add_finding(self, path: str, rule_id: str, line: int, col: int,
                     message: str, text: str) -> None:
        self._link_findings.setdefault(path, []).append({
            "rule": rule_id, "line": line, "col": col,
            "message": message, "text": text})

    def _evaluate_sink_writes(self) -> None:
        for path, summary in self.summaries.items():
            for record in summary.get("sink_writes", []):
                class_ref = self.resolve_class(record["class_ref"])
                if class_ref is None or class_ref not in self.sinks:
                    continue
                reason: Optional[str] = record.get("direct")
                if reason is None:
                    for ref in record.get("calls", []):
                        callee = self.resolve_ref(ref)
                        if callee is not None and callee in self.tainted:
                            reason = (f"via {callee} "
                                      f"[{self.tainted[callee]}]")
                            break
                if reason is None:
                    continue
                short = class_ref.rsplit(".", 1)[1]
                self._add_finding(
                    path, "DT201", record["line"], record["col"],
                    f"nondeterministic value reaches serialized field "
                    f"{short}.{record['field']} — {reason}; results "
                    "must be a pure function of (config, seed)",
                    record.get("text", ""))

    # -- what project rules consume -----------------------------------------

    def findings_for(self, rule_id: str) -> List[RawProjectViolation]:
        """Every finding for one rule id, over local summary findings
        and link-derived ones, in deterministic order."""
        out: List[RawProjectViolation] = []
        for path, summary in self.summaries.items():
            for record in summary.get("findings", []):
                if record["rule"] == rule_id:
                    out.append((path, record["line"], record["col"],
                                record["message"],
                                record.get("text", "")))
        for path, records in self._link_findings.items():
            for record in records:
                if record["rule"] == rule_id:
                    out.append((path, record["line"], record["col"],
                                record["message"],
                                record.get("text", "")))
        out.sort()
        return out

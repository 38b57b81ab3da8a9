"""Round-trip completeness (``RT`` rules): resume must restore every
field.

``A002`` checks that a class defining ``to_jsonable`` also defines
``from_jsonable``; this pass checks the pair is *complete* — every
dataclass field is serialized by ``to_jsonable`` and restored by
``from_jsonable``.  The bug class it targets is the one PRs 2/4/8
each guarded by hand: add a field to ``RunResult``, forget the
``from_jsonable`` line, and every resumed checkpoint silently reads
zero for it — an energy-accounting error no test notices until a
resumed matrix disagrees with a fresh one.

Heuristics (deliberately conservative — a field counts as covered on
any *mention*):

* a ``for f in fields(...)`` loop covers all fields at once (the
  ``FrameTimeline`` idiom), as does ``cls(**data)`` / ``asdict``;
* otherwise a field is serialized if its name appears in
  ``to_jsonable`` as a string key or ``self.<field>`` access, and
  restored if it appears in ``from_jsonable`` as a string, keyword
  argument, or attribute;
* classes whose methods build payloads through helpers we cannot see
  into (``**`` unpacks, delegated construction) are skipped, not
  guessed at.

Rules:

* ``RT301`` — field never serialized by ``to_jsonable``;
* ``RT302`` — field never restored by ``from_jsonable`` (the
  silent-default-after-resume bug);
* ``RT303`` — ``from_jsonable`` reads a key ``to_jsonable`` never
  writes (stale key or typo).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Set, TYPE_CHECKING

from .asthelpers import dotted_name, is_dataclass
from .registry import RawProjectViolation, rule

if TYPE_CHECKING:  # pragma: no cover — import cycle guard only
    from .callgraph import ProjectContext


def _method(classdef: ast.ClassDef, name: str
            ) -> Optional[ast.FunctionDef]:
    for node in classdef.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _field_names(classdef: ast.ClassDef) -> List[str]:
    """Dataclass fields: annotated class-body names, minus ClassVar
    and private (underscore) attributes."""
    names: List[str] = []
    for node in classdef.body:
        if not isinstance(node, ast.AnnAssign) \
                or not isinstance(node.target, ast.Name):
            continue
        name = node.target.id
        if name.startswith("_"):
            continue
        annotation = ast.unparse(node.annotation)
        if "ClassVar" in annotation or "InitVar" in annotation:
            continue
        names.append(name)
    return names


def _covers_all_fields(method: ast.FunctionDef) -> bool:
    """Does the method use a fields()/asdict()/** idiom that touches
    every dataclass field without naming them?

    A fields()-family call covers the class only when it walks ``self``
    or ``cls``: ``fields(self.read_stats)`` covers a nested object's
    fields, not this one's.
    """
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            short = name.split(".")[-1] if name else None
            if (short in ("fields", "asdict", "astuple", "replace", "vars")
                    and node.args and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in ("self", "cls")):
                return True
            if any(kw.arg is None for kw in node.keywords):  # **unpack
                return True
        if isinstance(node, ast.Dict) and any(
                key is None for key in node.keys):  # {**other}
            return True
    return False


def _mentions(method: ast.FunctionDef) -> Set[str]:
    """Every identifier the method plausibly uses to move a field:
    string constants, attribute names, and keyword-argument names."""
    out: Set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    out.add(keyword.arg)
        elif isinstance(node, ast.Name):
            out.add(node.id)
    return out


def _written_keys(method: ast.FunctionDef) -> Set[str]:
    """String keys ``to_jsonable`` writes: dict-literal keys and
    subscript-store keys."""
    keys: Set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    index = target.slice
                    if isinstance(index, ast.Constant) \
                            and isinstance(index.value, str):
                        keys.add(index.value)
    return keys


def _read_keys(method: ast.FunctionDef) -> Dict[str, int]:
    """String keys ``from_jsonable`` reads from its payload argument:
    ``data["k"]`` subscripts and ``data.get("k", ...)`` calls, mapped
    to the line they occur on."""
    args = method.args
    params = [a.arg for a in args.posonlyargs + args.args]
    payload = params[1] if len(params) > 1 else (params[0] if params
                                                 else None)
    if payload is None:
        return {}
    reads: Dict[str, int] = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == payload \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            reads.setdefault(node.slice.value, node.lineno)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == payload \
                and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            reads.setdefault(node.args[0].value, node.lineno)
    return reads


def analyze_class_roundtrip(classdef: ast.ClassDef, lines: List[str]
                            ) -> List[Dict[str, Any]]:
    """RT findings for one class (empty when the pair is absent,
    complete, or unanalyzable)."""
    to_method = _method(classdef, "to_jsonable")
    from_method = _method(classdef, "from_jsonable")
    if to_method is None or from_method is None:
        return []  # A002's territory
    if not is_dataclass(classdef):
        return []
    fields = _field_names(classdef)
    if not fields:
        return []

    def text(lineno: int) -> str:
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    findings: List[Dict[str, Any]] = []
    to_opaque = _covers_all_fields(to_method)
    from_opaque = _covers_all_fields(from_method)

    if not to_opaque:
        mentioned = _mentions(to_method)
        for field in fields:
            if field not in mentioned:
                findings.append({
                    "rule": "RT301", "line": to_method.lineno,
                    "col": to_method.col_offset,
                    "message": f"{classdef.name}.to_jsonable never "
                               f"serializes field {field!r} — it will "
                               "be lost on save",
                    "text": text(to_method.lineno)})
    if not from_opaque:
        mentioned = _mentions(from_method)
        for field in fields:
            if field not in mentioned:
                findings.append({
                    "rule": "RT302", "line": from_method.lineno,
                    "col": from_method.col_offset,
                    "message": f"{classdef.name}.from_jsonable never "
                               f"restores field {field!r} — resumed "
                               "payloads silently take the dataclass "
                               "default",
                    "text": text(from_method.lineno)})
    if not to_opaque and not from_opaque:
        written = _written_keys(to_method) | set(fields)
        for key, lineno in sorted(_read_keys(from_method).items()):
            if key not in written:
                findings.append({
                    "rule": "RT303", "line": lineno, "col": 0,
                    "message": f"{classdef.name}.from_jsonable reads "
                               f"key {key!r} that to_jsonable never "
                               "writes — stale key or typo",
                    "text": text(lineno)})
    return findings


def _findings(project: "ProjectContext", rule_id: str
              ) -> Iterator[RawProjectViolation]:
    yield from project.findings_for(rule_id)


@rule("RT301", "field-never-serialized", "round-trip",
      "to_jsonable serializes every dataclass field",
      scope="project")
def field_never_serialized(project: "ProjectContext"
                           ) -> Iterator[RawProjectViolation]:
    return _findings(project, "RT301")


@rule("RT302", "field-never-restored", "round-trip",
      "from_jsonable restores every dataclass field",
      scope="project")
def field_never_restored(project: "ProjectContext"
                         ) -> Iterator[RawProjectViolation]:
    return _findings(project, "RT302")


@rule("RT303", "stale-roundtrip-key", "round-trip",
      "from_jsonable only reads keys to_jsonable writes",
      scope="project")
def stale_roundtrip_key(project: "ProjectContext"
                        ) -> Iterator[RawProjectViolation]:
    return _findings(project, "RT303")

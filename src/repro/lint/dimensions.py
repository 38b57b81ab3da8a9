"""Unit-dimension inference (``UD`` rules): a lattice over quantities.

Every headline number in this repo is a physical quantity — joules,
seconds, bytes, hertz — flowing through race-to-sleep, MACH, and the
display-cache layers.  :mod:`repro.units` fixes the canonical scale
(J/s/W/bytes/Hz) and names every conversion, and rule ``U001`` keeps
magic factors out; this pass goes further and checks that quantities
of *different dimension or scale never meet* in arithmetic.

The abstract domain is a flat lattice of ``kind:scale`` points
(``energy:milli``, ``time:canonical``, ...) with ``unknown`` as top.
Facts are seeded from three places:

* calls to the :mod:`repro.units` helpers (``to_mj(x)`` produces
  ``energy:milli`` and *requires* ``energy:canonical`` in);
* multiplication/division by the named unit constants (``x * MS``
  converts ``time:milli`` to ``time:canonical``);
* naming conventions already policed by ``U002`` — ``*_seconds`` is
  canonical time, ``*_mj`` is milli energy, and so on.

Facts propagate through assignments, arithmetic (including the
physical products ``power x time -> energy`` and ``bytes / time ->
rate``), and — at link time, via the project call graph — through
call boundaries: a call site inherits the callee's inferred return
dimension, transitively resolved across modules.

Three rules come out of the analysis:

* ``UD101`` — dimension-mismatched arithmetic (``J + mJ``, ``s``
  compared against ``ms``, ``to_mj`` applied to an already-milli
  value);
* ``UD102`` — unconverted stores/returns: a value whose inferred
  dimension contradicts what the target's *name* claims
  (``stall_ms = <canonical seconds>``);
* ``UD103`` — unit-ambiguous public parameters: a quantity-named
  numeric parameter of a public function whose unit is stated nowhere
  (name, annotation, or docstring) — the call-boundary twin of
  ``U002``.
"""

from __future__ import annotations

import ast
import re
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from .asthelpers import constant_number
from .registry import RawProjectViolation, rule

if TYPE_CHECKING:  # pragma: no cover — import cycle guard only
    from .callgraph import ProjectContext

# --------------------------------------------------------------------------
# The dimension vocabulary
# --------------------------------------------------------------------------

#: A dimension point is encoded "kind:scale", e.g. "energy:milli".
Dim = str

_HUMAN = {
    "time:canonical": "s", "time:milli": "ms", "time:micro": "us",
    "time:nano": "ns",
    "energy:canonical": "J", "energy:milli": "mJ", "energy:micro": "uJ",
    "power:canonical": "W", "power:milli": "mW",
    "bytes:canonical": "bytes", "bytes:kibi": "KiB", "bytes:mebi": "MiB",
    "bytes:gibi": "GiB",
    "frequency:canonical": "Hz", "frequency:kilo": "kHz",
    "frequency:mega": "MHz", "frequency:giga": "GHz",
    "rate:canonical": "bytes/s", "rate:kilo": "kbit/s",
    "rate:mega": "Mbit/s",
}


def humanize(dim: Dim) -> str:
    """The unit symbol for a dimension point (for messages)."""
    return _HUMAN.get(dim, dim)


def _dim(kind: str, scale: str) -> Dim:
    return f"{kind}:{scale}"


def dim_kind(dim: Dim) -> str:
    return dim.split(":", 1)[0]


def dim_scale(dim: Dim) -> str:
    return dim.split(":", 1)[1]


#: Unit constants from repro.units, as (kind, scale) conversion factors.
#: ``x * MS`` reads "x is in ms; make it canonical"; ``x / MS`` reads
#: "x is canonical; express it in ms".  Identity constants (W, J,
#: SECOND) neither convert nor constrain.
UNIT_CONSTANTS: Dict[str, Tuple[str, str]] = {
    "NS": ("time", "nano"), "US": ("time", "micro"), "MS": ("time", "milli"),
    "MW": ("power", "milli"), "UJ": ("energy", "micro"),
    "MJ": ("energy", "milli"),
    "KIB": ("bytes", "kibi"), "MIB": ("bytes", "mebi"),
    "GIB": ("bytes", "gibi"),
    "KHZ": ("frequency", "kilo"), "MHZ": ("frequency", "mega"),
    "GHZ": ("frequency", "giga"),
    "KBPS": ("rate", "kilo"), "MBPS": ("rate", "mega"),
}

IDENTITY_CONSTANTS = {"SECOND", "W", "J"}

#: repro.units helper functions: name -> (input dim, output dim).
UNIT_HELPERS: Dict[str, Tuple[Dim, Dim]] = {
    "ns": (_dim("time", "nano"), _dim("time", "canonical")),
    "us": (_dim("time", "micro"), _dim("time", "canonical")),
    "ms": (_dim("time", "milli"), _dim("time", "canonical")),
    "mw": (_dim("power", "milli"), _dim("power", "canonical")),
    "mj": (_dim("energy", "milli"), _dim("energy", "canonical")),
    "kib": (_dim("bytes", "kibi"), _dim("bytes", "canonical")),
    "mib": (_dim("bytes", "mebi"), _dim("bytes", "canonical")),
    "mhz": (_dim("frequency", "mega"), _dim("frequency", "canonical")),
    "mbps": (_dim("rate", "mega"), _dim("rate", "canonical")),
    "to_ms": (_dim("time", "canonical"), _dim("time", "milli")),
    "to_mj": (_dim("energy", "canonical"), _dim("energy", "milli")),
    "to_mib": (_dim("bytes", "canonical"), _dim("bytes", "mebi")),
}

#: Name-convention claims: suffix -> dimension.  These mirror the
#: U002 conventions — a name that *states* its unit is believed.
_SUFFIX_CLAIMS: Tuple[Tuple[str, Dim], ...] = (
    ("_seconds", _dim("time", "canonical")),
    ("_time", _dim("time", "canonical")),
    ("_latency", _dim("time", "canonical")),
    ("_ms", _dim("time", "milli")),
    ("_us", _dim("time", "micro")),
    ("_ns", _dim("time", "nano")),
    ("_energy", _dim("energy", "canonical")),
    ("_joules", _dim("energy", "canonical")),
    ("_mj", _dim("energy", "milli")),
    ("_power", _dim("power", "canonical")),
    ("_watts", _dim("power", "canonical")),
    ("_mw", _dim("power", "milli")),
    ("_bytes", _dim("bytes", "canonical")),
    ("_kib", _dim("bytes", "kibi")),
    ("_mib", _dim("bytes", "mebi")),
    ("_hz", _dim("frequency", "canonical")),
    ("_mhz", _dim("frequency", "mega")),
    ("_ghz", _dim("frequency", "giga")),
    ("_mbps", _dim("rate", "mega")),
)

_EXACT_CLAIMS: Dict[str, Dim] = {
    "elapsed": _dim("time", "canonical"),
}

#: Names that are clearly dimensionless counts — dividing a quantity
#: by one of these preserves the quantity's dimension (J per frame is
#: still joules on the canonical scale).
_COUNT_RE = re.compile(r"^(n_|num_|count|total_count)|(_count|_frames|"
                       r"_blocks|_sessions|_jobs|_chunks|_bins|_lines)$"
                       r"|^(frames|blocks|n|k|size|capacity|denominator)$")

#: Physical products/quotients on canonical scales.
_PRODUCTS = {
    ("power", "time"): "energy",
    ("rate", "time"): "bytes",
}
_QUOTIENTS = {
    ("energy", "time"): "power",
    ("energy", "power"): "time",
    ("bytes", "time"): "rate",
    ("bytes", "rate"): "time",
}

#: UD103: the *ambiguous* quantity vocabularies (scale not in the name).
_AMBIGUOUS_SUFFIXES = ("_energy", "_power", "_time", "_latency")
_AMBIGUOUS_NAMES = {"power", "energy", "latency", "elapsed"}

#: A unit mention in a docstring (for UD103's documented-check).
_DOC_UNIT_RE = re.compile(
    r"(\b[JWs]\b|\bHz\b|\bm[JWs]\b|joule|watt|second|hertz|byte|"
    r"bytes/s|bits?/s|millis|bytes\b)")

#: Modules exempt from dimension checks: the conversion tables are
#: the *data* there, not quantities.
EXEMPT_MODULES = {"repro.units"}


def name_claim(name: str) -> Optional[Dim]:
    """The dimension a bare name claims via convention, if any."""
    if name in _EXACT_CLAIMS:
        return _EXACT_CLAIMS[name]
    for suffix, dim in _SUFFIX_CLAIMS:
        if name.endswith(suffix):
            return dim
    return None


def is_ambiguous_quantity_name(name: str) -> bool:
    """Does ``name`` claim a quantity without naming its unit?"""
    return (name in _AMBIGUOUS_NAMES
            or any(name.endswith(s) for s in _AMBIGUOUS_SUFFIXES))


def doc_mentions_unit(docstring: Optional[str], param: str) -> bool:
    """Does the docstring state a unit anywhere near ``param``?"""
    if not docstring:
        return False
    if param not in docstring:
        return False
    return bool(_DOC_UNIT_RE.search(docstring))


# --------------------------------------------------------------------------
# Symbolic dimension expressions (phase 1 -> link)
# --------------------------------------------------------------------------
#
# A DimExpr is either a concrete Dim ("energy:milli"), a symbolic
# reference to a callee's return dimension ("ret:<ref>"), or None
# (unknown / dimensionless).  Symbolic values are resolved at link
# time against the project function table.

DimExpr = Optional[str]


def is_symbolic(expr: DimExpr) -> bool:
    return expr is not None and expr.startswith("ret:")


def _concrete(expr: DimExpr) -> Optional[Dim]:
    if expr is None or is_symbolic(expr):
        return None
    return expr


class ModuleDimAnalysis:
    """Intraprocedural dimension inference over one module.

    Produces, into the module summary dict:

    * ``local`` findings — checks decidable without the call graph;
    * ``pending`` checks — involve a symbolic callee dimension and
      are evaluated at link time;
    * per-function ``return_dim`` facts for the project table.

    ``resolver(call)`` classifies call sites: ``("helper", name)`` for
    repro.units helpers, ``("ref", qualref)`` for project functions,
    ``("unit_const", NAME)`` never appears for calls, or ``None``.
    ``const_lookup(name_node)`` classifies Name/Attribute operands as
    unit constants.
    """

    def __init__(self, module: str, lines: List[str],
                 resolver: Callable[[ast.Call], Optional[Tuple[str, str]]],
                 const_lookup: Callable[[ast.AST], Optional[str]]) -> None:
        self.module = module
        self.lines = lines
        self.resolver = resolver
        self.const_lookup = const_lookup
        self.local: List[Dict[str, Any]] = []
        self.pending: List[Dict[str, Any]] = []

    # -- plumbing ----------------------------------------------------------

    def _text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.local.append({
            "rule": rule_id, "line": node.lineno, "col": node.col_offset,
            "message": message, "text": self._text(node.lineno)})

    def _defer(self, node: ast.AST, kind: str, **extra: Any) -> None:
        record = {"kind": kind, "line": node.lineno,
                  "col": node.col_offset,
                  "text": self._text(node.lineno)}
        record.update(extra)
        self.pending.append(record)

    # -- expression evaluation --------------------------------------------

    def eval_expr(self, node: ast.AST, env: Dict[str, DimExpr]) -> DimExpr:
        """The inferred dimension of an expression (None = unknown)."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return name_claim(node.id)
        if isinstance(node, ast.Attribute):
            return name_claim(node.attr)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self.eval_expr(node.operand, env)
        if isinstance(node, ast.IfExp):
            a = self.eval_expr(node.body, env)
            b = self.eval_expr(node.orelse, env)
            return a if a == b else None
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Compare):
            self._check_compare(node, env)
            return None
        if isinstance(node, ast.Starred):
            return None
        return None

    def _eval_call(self, node: ast.Call, env: Dict[str, DimExpr]) -> DimExpr:
        resolved = self.resolver(node)
        if resolved is not None:
            what, name = resolved
            if what == "helper":
                expected, produced = UNIT_HELPERS[name]
                if node.args:
                    actual = self.eval_expr(node.args[0], env)
                    self._check_helper_arg(node, name, expected, actual)
                return produced
            if what == "ref":
                return f"ret:{name}"
        # Transparent wrappers: dimension flows through the first arg.
        callee = node.func
        short = callee.attr if isinstance(callee, ast.Attribute) else (
            callee.id if isinstance(callee, ast.Name) else None)
        if short in ("float", "abs", "round", "float64") and node.args:
            return self.eval_expr(node.args[0], env)
        if short in ("min", "max", "maximum", "minimum", "clip",
                     "fmin", "fmax") and len(node.args) >= 2:
            dims = [self.eval_expr(arg, env) for arg in node.args]
            concrete = [d for d in dims if _concrete(d)]
            if len(set(concrete)) > 1:
                a, b = sorted(set(concrete))[:2]
                self._emit("UD101", node,
                           f"{short}() mixes {humanize(a)} with "
                           f"{humanize(b)} — convert one operand first")
            return concrete[0] if concrete else None
        return None

    def _check_helper_arg(self, node: ast.Call, helper: str,
                          expected: Dim, actual: DimExpr) -> None:
        concrete = _concrete(actual)
        if concrete is not None and concrete != expected:
            self._emit("UD101", node,
                       f"{helper}() expects {humanize(expected)} but its "
                       f"argument is {humanize(concrete)} — this "
                       "double-converts (or skips) a scale change")
        elif is_symbolic(actual):
            self._defer(node, "helper", helper=helper, expected=expected,
                        actual=actual)

    def _eval_binop(self, node: ast.BinOp, env: Dict[str, DimExpr]
                    ) -> DimExpr:
        left = self.eval_expr(node.left, env)
        right = self.eval_expr(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return self._additive(node, "+" if isinstance(node.op, ast.Add)
                                  else "-", left, right)
        if isinstance(node.op, ast.Mult):
            return self._multiply(node, left, right, env)
        if isinstance(node.op, ast.Div):
            return self._divide(node, left, right, env)
        if isinstance(node.op, (ast.Mod, ast.FloorDiv)):
            return _concrete(left)
        return None

    def _additive(self, node: ast.AST, op: str, left: DimExpr,
                  right: DimExpr) -> DimExpr:
        lc, rc = _concrete(left), _concrete(right)
        if lc is not None and rc is not None:
            if lc != rc:
                self._emit("UD101", node,
                           f"'{op}' mixes {humanize(lc)} with "
                           f"{humanize(rc)} — convert to a common unit "
                           "via repro.units first")
                return None
            return lc
        if (is_symbolic(left) or is_symbolic(right)) and (
                lc is not None or rc is not None
                or (is_symbolic(left) and is_symbolic(right))):
            self._defer(node, "binop", op=op, left=left, right=right)
        return lc if lc is not None else rc

    def _unit_const(self, operand: ast.AST) -> Optional[Tuple[str, str]]:
        """(kind, scale) when the operand is a scaled unit constant."""
        name = self.const_lookup(operand)
        if name is None or name in IDENTITY_CONSTANTS:
            return None
        return UNIT_CONSTANTS.get(name)

    def _multiply(self, node: ast.BinOp, left: DimExpr, right: DimExpr,
                  env: Dict[str, DimExpr]) -> DimExpr:
        for operand, other_expr in ((node.right, left), (node.left, right)):
            const = self._unit_const(operand)
            if const is not None:
                kind, scale = const
                other = _concrete(other_expr)
                # "value-in-<scale> * CONST" makes it canonical.
                if other is None or other == _dim(kind, scale):
                    return _dim(kind, "canonical")
                return None
        lc, rc = _concrete(left), _concrete(right)
        if lc is not None and rc is not None:
            lk, rk = dim_kind(lc), dim_kind(rc)
            if (dim_scale(lc) == dim_scale(rc) == "canonical"):
                product = _PRODUCTS.get((lk, rk)) or _PRODUCTS.get((rk, lk))
                if product is not None:
                    return _dim(product, "canonical")
            return None
        known = lc if lc is not None else rc
        if known is not None:
            other_node = node.right if lc is not None else node.left
            if constant_number(other_node) is not None:
                return known  # scalar gain keeps the unit
        return None

    def _divide(self, node: ast.BinOp, left: DimExpr, right: DimExpr,
                env: Dict[str, DimExpr]) -> DimExpr:
        const = self._unit_const(node.right)
        lc, rc = _concrete(left), _concrete(right)
        if const is not None:
            kind, scale = const
            # "canonical / CONST" expresses the value on CONST's scale.
            if lc is None or lc == _dim(kind, "canonical"):
                return _dim(kind, scale)
            if lc == _dim(kind, scale):
                self._emit("UD101", node,
                           f"dividing a {humanize(lc)} value by the "
                           f"{humanize(_dim(kind, scale))} factor again — "
                           "it is already on that scale")
            return None
        if lc is not None and rc is not None:
            lk, rk = dim_kind(lc), dim_kind(rc)
            if dim_scale(lc) == dim_scale(rc) == "canonical":
                quotient = _QUOTIENTS.get((lk, rk))
                if quotient is not None:
                    return _dim(quotient, "canonical")
            if lc == rc:
                return None  # dimensionless ratio
            return None
        if lc is not None and self._is_countlike(node.right):
            return lc  # J per frame is still canonical joules
        return None

    def _is_countlike(self, node: ast.AST) -> bool:
        if constant_number(node) is not None and isinstance(
                getattr(node, "value", None), int):
            return True
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Call):
            func = node.func
            short = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            return short == "len"
        return name is not None and bool(_COUNT_RE.search(name))

    def _check_compare(self, node: ast.Compare,
                       env: Dict[str, DimExpr]) -> None:
        operands = [node.left, *node.comparators]
        dims = [self.eval_expr(o, env) for o in operands]
        for left, right in zip(dims, dims[1:]):
            lc, rc = _concrete(left), _concrete(right)
            if lc is not None and rc is not None and lc != rc:
                self._emit("UD101", node,
                           f"comparison mixes {humanize(lc)} with "
                           f"{humanize(rc)} — convert to a common unit "
                           "first")
            elif (is_symbolic(left) or is_symbolic(right)) and (
                    lc is not None or rc is not None):
                self._defer(node, "binop", op="<>", left=left, right=right)

    # -- statements --------------------------------------------------------

    def _check_store(self, node: ast.AST, target: ast.AST,
                     value_dim: DimExpr) -> None:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is None:
            return
        claim = name_claim(name)
        if claim is None:
            return
        concrete = _concrete(value_dim)
        if concrete is not None and concrete != claim:
            self._emit("UD102", node,
                       f"{name!r} claims {humanize(claim)} but the "
                       f"assigned value is {humanize(concrete)} — "
                       "convert via repro.units or rename the target")
        elif is_symbolic(value_dim):
            self._defer(node, "store", target=name, expected=claim,
                        actual=value_dim)

    def analyze_function(self, func: ast.AST, fn_record: Dict[str, Any]
                         ) -> None:
        """Infer dimensions through one function body; fill the
        function record's ``return_dim``."""
        env: Dict[str, DimExpr] = {}
        for param in fn_record["params"]:
            claim = name_claim(param["name"])
            if claim is not None:
                env[param["name"]] = claim
        return_dims: List[DimExpr] = []
        claim = (None if fn_record["module_exempt"]
                 else name_claim(fn_record["name"]))
        for statement in _ordered_statements(func):
            self._analyze_statement(statement, env, return_dims, claim)
        concrete_returns = {d for d in return_dims if _concrete(d)}
        if len(concrete_returns) == 1:
            fn_record["return_dim"] = concrete_returns.pop()
        elif len(return_dims) == 1 and is_symbolic(return_dims[0]):
            fn_record["return_dim"] = return_dims[0]
        else:
            fn_record["return_dim"] = None

    def _analyze_statement(self, statement: ast.AST,
                           env: Dict[str, DimExpr],
                           return_dims: List[DimExpr],
                           return_claim: Optional[Dim]) -> None:
        if isinstance(statement, ast.Assign):
            value_dim = self.eval_expr(statement.value, env)
            for target in statement.targets:
                self._check_store(statement, target, value_dim)
                if isinstance(target, ast.Name):
                    env[target.id] = (value_dim if _concrete(value_dim)
                                      else (name_claim(target.id)
                                            if value_dim is None
                                            else value_dim))
        elif isinstance(statement, ast.AnnAssign) and statement.value:
            value_dim = self.eval_expr(statement.value, env)
            self._check_store(statement, statement.target, value_dim)
            if isinstance(statement.target, ast.Name) and (
                    _concrete(value_dim) or is_symbolic(value_dim)):
                env[statement.target.id] = value_dim
        elif isinstance(statement, ast.AugAssign):
            if isinstance(statement.op, (ast.Add, ast.Sub)):
                target_dim = self.eval_expr(statement.target, env)
                value_dim = self.eval_expr(statement.value, env)
                op = "+" if isinstance(statement.op, ast.Add) else "-"
                self._additive(statement, op, target_dim, value_dim)
        elif isinstance(statement, ast.Return) and statement.value:
            value_dim = self.eval_expr(statement.value, env)
            return_dims.append(value_dim)
            if return_claim is not None:
                concrete = _concrete(value_dim)
                if concrete is not None and concrete != return_claim:
                    self._emit(
                        "UD102", statement,
                        f"function name claims {humanize(return_claim)} "
                        f"but it returns {humanize(concrete)} — convert "
                        "via repro.units or rename")
                elif is_symbolic(value_dim):
                    self._defer(statement, "return",
                                expected=return_claim, actual=value_dim)
        elif isinstance(statement, (ast.Expr, ast.Assert)):
            value = (statement.value if isinstance(statement, ast.Expr)
                     else statement.test)
            self.eval_expr(value, env)
        elif isinstance(statement, (ast.If, ast.While)):
            self.eval_expr(statement.test, env)


def _ordered_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """Statements of a function body in source order, descending into
    compound statements but *not* into nested function/class defs."""
    stack: List[ast.stmt] = list(reversed(getattr(func, "body", [])))
    while stack:
        statement = stack.pop()
        yield statement
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            continue
        blocks: List[List[ast.stmt]] = []
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(statement, attr, None)
            if block:
                blocks.append(block)
        for handler in getattr(statement, "handlers", []) or []:
            blocks.append(handler.body)
        for block in reversed(blocks):
            stack.extend(reversed(block))


# --------------------------------------------------------------------------
# Link-time evaluation (project scope)
# --------------------------------------------------------------------------


def evaluate_pending_dim(record: Dict[str, Any],
                         resolve: Callable[[str], Optional[Dim]]
                         ) -> Optional[Tuple[str, str]]:
    """Evaluate one deferred check once callee dims are resolvable.

    Returns ``(rule_id, message)`` when the check fires, else None.
    ``resolve`` maps a symbolic "ret:<ref>" to a concrete Dim or None.
    """

    def concrete(expr: DimExpr) -> Optional[Dim]:
        if expr is None:
            return None
        if is_symbolic(expr):
            return resolve(expr)
        return expr

    kind = record["kind"]
    if kind == "binop":
        left = concrete(record["left"])
        right = concrete(record["right"])
        if left is not None and right is not None and left != right:
            return ("UD101",
                    f"'{record['op']}' mixes {humanize(left)} with "
                    f"{humanize(right)} (via a call's return unit) — "
                    "convert to a common unit via repro.units first")
        return None
    if kind == "helper":
        actual = concrete(record["actual"])
        if actual is not None and actual != record["expected"]:
            return ("UD101",
                    f"{record['helper']}() expects "
                    f"{humanize(record['expected'])} but its argument "
                    f"resolves to {humanize(actual)} — this "
                    "double-converts (or skips) a scale change")
        return None
    if kind in ("store", "return"):
        actual = concrete(record["actual"])
        if actual is not None and actual != record["expected"]:
            target = (f"{record['target']!r}" if kind == "store"
                      else "the function's name")
            return ("UD102",
                    f"{target} claims {humanize(record['expected'])} but "
                    f"the value resolves to {humanize(actual)} — convert "
                    "via repro.units or rename")
        return None
    return None


def _findings(project: "ProjectContext", rule_id: str
              ) -> Iterator[RawProjectViolation]:
    yield from project.findings_for(rule_id)


@rule("UD101", "dimension-mismatched-arithmetic", "dimension",
      "no arithmetic or comparison across unit dimensions or scales",
      scope="project")
def dimension_mismatched_arithmetic(project: "ProjectContext"
                                    ) -> Iterator[RawProjectViolation]:
    return _findings(project, "UD101")


@rule("UD102", "unconverted-store-or-return", "dimension",
      "stores/returns match the unit their target's name claims",
      scope="project")
def unconverted_store_or_return(project: "ProjectContext"
                                ) -> Iterator[RawProjectViolation]:
    return _findings(project, "UD102")


@rule("UD103", "unit-ambiguous-public-parameter", "dimension",
      "quantity-named public parameters state their unit somewhere",
      scope="project")
def unit_ambiguous_public_parameter(project: "ProjectContext"
                                    ) -> Iterator[RawProjectViolation]:
    return _findings(project, "UD103")

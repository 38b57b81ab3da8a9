"""repro.lint — AST-based invariant checker for the repro codebase.

The simulator's headline guarantees are *conventions*: bit-identical
seeded runs, canonical SI units everywhere, and a typed
:mod:`repro.errors` hierarchy.  ``repro validate`` checks the results
against the paper; this package checks the *code* against the
conventions, so they cannot silently rot as the tree grows.

Four rule families (see ``docs/LINTING.md`` for the full catalogue):

* **determinism** (``D``) — no unseeded RNG construction, no wall-clock
  reads, no global RNG state;
* **units** (``U``) — no magic unit-conversion literals outside
  :mod:`repro.units`; unit-suffixed dataclass fields must document
  their canonical unit;
* **error policy** (``E``) — no bare ``except``, no broad
  ``except Exception`` without justification, ``raise`` sites use the
  :mod:`repro.errors` hierarchy or validation builtins;
* **API contract** (``A``) — public functions are fully annotated and
  ``to_jsonable``/``from_jsonable`` checkpoint pairs stay complete.

Two *whole-program* families run over the linked project (shared
symbol table + call graph, see :mod:`repro.lint.callgraph`):

* **taint** (``DT``) — determinism taint tracking: no nondeterministic
  value reaches a serialized result, no float accumulation over set
  iteration, mergeable aggregates accumulate exactly;
* **round-trip** (``RT``) — ``to_jsonable``/``from_jsonable`` pairs
  are field-complete, so resume never silently defaults a field.

Violations are suppressed per line with a *justified* comment::

    thing()  # repro-lint: disable=E002 isolation is the point

The tier-1 suite lints the whole tree, so a new violation fails it.
"""

from __future__ import annotations

from .callgraph import ProjectContext
from .engine import (
    LintReport,
    ModuleContext,
    Violation,
    analyze_file,
    default_lint_root,
    lint_paths,
    lint_source,
)
from .registry import Rule, all_rules, get_rule

# Importing the rule modules registers every built-in rule; the
# project-scope passes register on import of their defining modules.
from . import rules as _rules  # noqa: F401
from . import roundtrip as _roundtrip  # noqa: F401
from . import taint as _taint  # noqa: F401

__all__ = [
    "LintReport",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "Violation",
    "all_rules",
    "analyze_file",
    "default_lint_root",
    "get_rule",
    "lint_paths",
    "lint_source",
]

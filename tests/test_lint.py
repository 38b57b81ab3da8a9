"""Tests for repro.lint — the AST-based invariant checker.

Every rule family gets a good/bad fixture pair, the suppression
mechanism gets its own tests, and — the point of the whole exercise —
the real source tree is linted with every rule, so the tier-1 suite
fails the moment a violation lands.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import LintError
from repro.lint import all_rules, lint_paths, lint_source

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Path handed to lint_source so fixtures count as in-package modules.
FAKE = "src/repro/fake_module.py"


def rule_ids(source: str, path: str = FAKE) -> list:
    return sorted({v.rule_id for v in lint_source(source, path=path)})


def hits(source: str, rule_id: str, path: str = FAKE) -> int:
    return sum(1 for v in lint_source(source, path=path)
               if v.rule_id == rule_id)


class TestDeterminismRules:
    def test_unseeded_default_rng_fires(self):
        assert hits("import numpy as np\nrng = np.random.default_rng()\n",
                    "D001") == 1

    def test_seeded_default_rng_clean(self):
        assert hits("import numpy as np\n"
                    "rng = np.random.default_rng(7)\n", "D001") == 0
        assert hits("import numpy as np\n"
                    "rng = np.random.default_rng(seed=7)\n", "D001") == 0

    def test_unseeded_stdlib_random_fires(self):
        assert hits("import random\nrng = random.Random()\n", "D001") == 1

    def test_from_import_is_resolved(self):
        assert hits("from numpy.random import default_rng\n"
                    "rng = default_rng()\n", "D001") == 1

    def test_wall_clock_fires(self):
        assert hits("import time\nnow = time.time()\n", "D002") == 1
        assert hits("import time\nnow = time.perf_counter()\n", "D002") == 1
        assert hits("from datetime import datetime\n"
                    "stamp = datetime.now()\n", "D002") == 1

    def test_model_time_clean(self):
        assert hits("def advance(clock: float, dt: float) -> float:\n"
                    "    return clock + dt\n", "D002") == 0

    def test_global_rng_state_fires(self):
        assert hits("import numpy as np\nnp.random.seed(0)\n", "D003") == 1
        assert hits("import numpy as np\nx = np.random.rand(4)\n",
                    "D003") == 1
        assert hits("import random\nrandom.seed(3)\n", "D003") == 1

    def test_generator_methods_clean(self):
        source = ("import numpy as np\n"
                  "rng = np.random.default_rng(1)\n"
                  "x = rng.integers(10)\n")
        assert hits(source, "D003") == 0


class TestUnitsRules:
    def test_magic_factor_fires(self):
        assert hits("def f(ms: float) -> float:\n"
                    "    return ms * 1e-3\n", "U001") == 1
        assert hits("def f(j: float) -> float:\n"
                    "    return j / 1e6\n", "U001") == 1
        assert hits("CAP = 64 * 1024 * 1024\n", "U001") >= 1
        assert hits("CAP = 16 * 1024 ** 2\n", "U001") >= 1

    def test_named_constants_clean(self):
        source = ("from repro.units import MS, MIB\n"
                  "def f(ms: float) -> float:\n"
                  "    return ms * MS\n"
                  "CAP = 64 * MIB\n")
        assert hits(source, "U001") == 0

    def test_epsilon_comparisons_clean(self):
        # Tolerances are additive, not multiplicative — not conversions.
        assert hits("def full(level: float, cap: float) -> bool:\n"
                    "    return level > cap + 1e-9\n", "U001") == 0

    def test_units_module_itself_exempt(self):
        assert hits("MS = 1e-3\nX = 2 * 1e-3\n", "U001",
                    path="src/repro/units.py") == 0

    def test_undocumented_quantity_field_fires(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Config:\n"
                  "    tail_energy: float = 0.5\n")
        assert hits(source, "U002") == 1

    def test_unit_comment_satisfies(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Config:\n"
                  "    tail_energy: float = 0.5  # J per tail\n")
        assert hits(source, "U002") == 0

    def test_units_constant_default_satisfies(self):
        source = ("from dataclasses import dataclass\n"
                  "from repro.units import MW\n"
                  "@dataclass\n"
                  "class Config:\n"
                  "    idle_power: float = 12 * MW\n")
        assert hits(source, "U002") == 0

    def test_structured_field_exempt(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Result:\n"
                  "    energy: EnergyBreakdown\n")
        assert hits(source, "U002") == 0


class TestErrorPolicyRules:
    def test_bare_except_fires(self):
        assert hits("try:\n    x = 1\nexcept:\n    pass\n", "E001") == 1

    def test_broad_except_fires(self):
        assert hits("try:\n    x = 1\nexcept Exception:\n    pass\n",
                    "E002") == 1

    def test_typed_except_clean(self):
        assert rule_ids("from repro.errors import ReproError\n"
                        "try:\n    x = 1\n"
                        "except ReproError:\n    pass\n") == []

    def test_raise_runtime_error_fires(self):
        assert hits("def f() -> None:\n"
                    "    raise RuntimeError('nope')\n", "E003") == 1

    def test_raise_hierarchy_and_builtins_clean(self):
        source = ("from repro.errors import ConfigError\n"
                  "def f(x: int) -> None:\n"
                  "    if x < 0:\n"
                  "        raise ValueError('negative')\n"
                  "    raise ConfigError('bad')\n")
        assert hits(source, "E003") == 0

    def test_reraise_clean(self):
        source = ("def f() -> None:\n"
                  "    try:\n        g()\n"
                  "    except ValueError as exc:\n"
                  "        raise\n")
        assert hits(source, "E003") == 0


class TestApiContractRules:
    def test_unannotated_public_function_fires(self):
        assert hits("def runner(jobs):\n    return jobs\n", "A001") >= 1

    def test_annotated_public_function_clean(self):
        assert hits("def runner(jobs: list) -> list:\n    return jobs\n",
                    "A001") == 0

    def test_private_and_nested_functions_exempt(self):
        source = ("def _helper(x):\n    return x\n"
                  "def outer() -> None:\n"
                  "    def inner(y):\n        return y\n")
        assert hits(source, "A001") == 0

    def test_self_needs_no_annotation(self):
        source = ("class Thing:\n"
                  "    def value(self) -> int:\n        return 1\n")
        assert hits(source, "A001") == 0

    def test_lone_to_jsonable_fires(self):
        source = ("class Result:\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {}\n")
        assert hits(source, "A002") == 1

    def test_paired_jsonable_clean(self):
        source = ("class Result:\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, data: dict) -> 'Result':\n"
                  "        return cls()\n")
        assert hits(source, "A002") == 0

    def test_from_jsonable_must_be_classmethod(self):
        source = ("class Result:\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {}\n"
                  "    def from_jsonable(self, data: dict) -> 'Result':\n"
                  "        return self\n")
        assert hits(source, "A002") == 1


class TestSuppressions:
    BAD_LINE = "import numpy as np\nrng = np.random.default_rng()"

    def test_inline_suppression_absorbs(self):
        source = (self.BAD_LINE
                  + "  # repro-lint: disable=D001 docs example\n")
        assert rule_ids(source) == []

    def test_next_line_suppression_absorbs(self):
        source = ("import numpy as np\n"
                  "# repro-lint: disable-next-line=D001 docs example\n"
                  "rng = np.random.default_rng()\n")
        assert rule_ids(source) == []

    def test_file_suppression_absorbs(self):
        source = ("# repro-lint: disable-file=D001 fixture module\n"
                  + self.BAD_LINE + "\n"
                  + "rng2 = np.random.default_rng()\n")
        assert rule_ids(source) == []

    def test_unjustified_suppression_is_a_violation(self):
        source = self.BAD_LINE + "  # repro-lint: disable=D001\n"
        assert rule_ids(source) == ["S001"]

    def test_unknown_rule_in_suppression_is_a_violation(self):
        source = (self.BAD_LINE
                  + "  # repro-lint: disable=Z999 because reasons\n")
        ids = rule_ids(source)
        assert "S002" in ids and "D001" in ids  # Z999 absorbs nothing

    def test_wrong_rule_does_not_absorb(self):
        source = (self.BAD_LINE
                  + "  # repro-lint: disable=E001 wrong family\n")
        assert "D001" in rule_ids(source)


class TestEngine:
    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n")

    def test_malformed_directive_raises(self):
        with pytest.raises(LintError):
            lint_source("x = 1  # repro-lint: disable\n")

    def test_select_restricts_rules(self):
        source = ("import numpy as np\n"
                  "def f(jobs):\n"
                  "    return np.random.default_rng()\n")
        only_d = lint_source(source, path=FAKE, select=["D001"])
        assert {v.rule_id for v in only_d} == {"D001"}

    def test_rule_catalogue_is_complete(self):
        # Exact, so a leftover id or an accidentally dropped rule fails.
        by_scope = {"file": set(), "project": set()}
        for lint_rule in all_rules():
            by_scope[lint_rule.scope].add(lint_rule.id)
        assert by_scope == {
            "file": {"D001", "D002", "D003", "U001", "U002",
                     "E001", "E002", "E003", "A001", "A002",
                     "F001", "S001", "S002"},
            "project": {"DT201", "DT202", "DT203",
                        "RT301", "RT302", "RT303"}}


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "D001" in out and "unseeded-rng" in out

    def test_lint_bad_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nnow = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        assert "D002" in capsys.readouterr().out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["lint", "--select", "Z999"]) == 2
        assert "Z999" in capsys.readouterr().err

    def test_default_root_is_clean(self, capsys):
        # No paths: lint the installed repro package with every rule.
        assert main(["lint"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out


class TestWholeTree:
    """The acceptance criterion: the real tree, every rule."""

    def test_source_tree_is_clean(self):
        report = lint_paths([str(REPO_SRC)])
        assert report.files_checked > 80
        assert report.ok, "\n" + report.render_text()

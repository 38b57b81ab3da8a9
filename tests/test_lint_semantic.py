"""Tests for the whole-program semantic passes in repro.lint.

Covers the two flow-aware families — determinism taint tracking
(DT2xx) and round-trip completeness (RT3xx) — each with true-positive
*and* false-positive fixtures, the interprocedural link (taint
resolved across function and module boundaries), and the registry and
per-file analysis entry point around them.
"""

from __future__ import annotations

import json

from repro.lint import (
    all_rules,
    analyze_file,
    get_rule,
    lint_paths,
    lint_source,
)

#: Path handed to lint_source so fixtures count as in-package modules.
FAKE = "src/repro/fake_module.py"


def rule_ids(source: str, path: str = FAKE) -> list:
    return sorted({v.rule_id for v in lint_source(source, path=path)})


def hits(source: str, rule_id: str, path: str = FAKE) -> int:
    return sum(1 for v in lint_source(source, path=path)
               if v.rule_id == rule_id)


# --------------------------------------------------------------------------
# DT2xx: determinism taint tracking
# --------------------------------------------------------------------------

_SINK_CLASS = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class FooResult:\n"
    "    started: float = 0.0\n"
    "    def to_jsonable(self) -> dict:\n"
    "        return {'started': self.started}\n"
    "    @classmethod\n"
    "    def from_jsonable(cls, data: dict) -> 'FooResult':\n"
    "        return cls(started=data['started'])\n")


class TestTaintTracking:
    def test_direct_source_into_result_fires(self):
        source = ("import time\n" + _SINK_CLASS
                  + "def f() -> FooResult:\n"
                    "    return FooResult(started=time.time())\n")
        assert hits(source, "DT201") == 1

    def test_clean_value_into_result_clean(self):
        source = (_SINK_CLASS
                  + "def f(elapsed: float) -> FooResult:\n"
                    "    return FooResult(started=elapsed)\n")
        assert hits(source, "DT201") == 0

    def test_taint_through_call_chain_fires(self):
        # The source hides two calls away from the sink write.
        source = ("import time\n" + _SINK_CLASS
                  + "def now() -> float:\n"
                    "    return time.time()\n"
                    "def stamp() -> float:\n"
                    "    return now() + 1.0\n"
                    "def f() -> FooResult:\n"
                    "    return FooResult(started=stamp())\n")
        assert hits(source, "DT201") == 1

    def test_taint_into_non_sink_class_clean(self):
        # No to_jsonable — not a serialized result, DT201 stays quiet
        # (D002 still fires on the wall-clock call itself).
        source = ("import time\n"
                  "from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Scratch:\n"
                  "    started: float = 0.0\n"
                  "def f() -> Scratch:\n"
                  "    return Scratch(started=time.time())\n")
        assert hits(source, "DT201") == 0

    def test_environ_read_is_a_source(self):
        source = ("import os\n" + _SINK_CLASS
                  + "def f() -> FooResult:\n"
                    "    return FooResult(started=float("
                    "os.getenv('T', '0')))\n")
        assert hits(source, "DT201") == 1

    def test_set_iteration_float_accumulation_fires(self):
        assert hits("def f(values: list) -> float:\n"
                    "    total = 0.0\n"
                    "    for v in set(values):\n"
                    "        total += v * 2.0\n"
                    "    return total\n", "DT202") == 1

    def test_sorted_set_iteration_clean(self):
        assert hits("def f(values: list) -> float:\n"
                    "    total = 0.0\n"
                    "    for v in sorted(set(values)):\n"
                    "        total += v * 2.0\n"
                    "    return total\n", "DT202") == 0

    def test_int_accumulation_over_set_clean(self):
        # Integer accumulation is exact in any order.
        assert hits("def f(values: list) -> int:\n"
                    "    total = 0\n"
                    "    for v in set(values):\n"
                    "        total += int(v)\n"
                    "    return total\n", "DT202") == 0

    def test_sum_over_set_comprehension_fires(self):
        assert hits("def f(values: list) -> float:\n"
                    "    return sum({v * 0.5 for v in values})\n",
                    "DT202") == 1

    def test_float_merge_accumulation_fires(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Agg:\n"
                  "    total: float = 0.0\n"
                  "    def merge(self, other: 'Agg') -> None:\n"
                  "        self.total += other.total\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'total': self.total}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Agg':\n"
                  "        return cls(total=d['total'])\n")
        assert hits(source, "DT203") == 1

    def test_int_quantized_merge_clean(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Agg:\n"
                  "    q_total: int = 0\n"
                  "    def merge(self, other: 'Agg') -> None:\n"
                  "        self.q_total += other.q_total\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'q_total': self.q_total}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Agg':\n"
                  "        return cls(q_total=d['q_total'])\n")
        assert hits(source, "DT203") == 0

    def test_no_merge_method_is_not_an_aggregate(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Tally:\n"
                  "    total: float = 0.0\n"
                  "    def add(self, x: float) -> None:\n"
                  "        self.total += x\n")
        assert hits(source, "DT203") == 0


class TestCrossModuleLink:
    """Taint resolved across two files by the project link."""

    CLOCK = ("import time\n"
             "def now() -> float:\n"
             "    return time.time()\n"
             "def model_now() -> float:\n"
             "    return 0.0\n"
             "class Stamper:\n"
             "    def mark_wallclock(self) -> float:\n"
             "        return time.time()\n"
             "    def mark_model(self) -> float:\n"
             "        return 1.0\n")

    # ``repro.now`` names no function in the tree: the link resolves it
    # to the unique top-level ``now``, as for a package re-export.  The
    # unannotated ``stamper`` leaves only the unique-method fallback.
    REPORT = (_SINK_CLASS
              + "from repro import model_now, now\n"
                "def reexported() -> FooResult:\n"
                "    return FooResult(started=now())\n"
                "def reexported_clean() -> FooResult:\n"
                "    return FooResult(started=model_now())\n"
                "def by_method(stamper) -> FooResult:\n"
                "    return FooResult(started=stamper.mark_wallclock())\n"
                "def by_method_clean(stamper) -> FooResult:\n"
                "    return FooResult(started=stamper.mark_model())\n")

    def test_taint_crosses_modules_by_reexport_and_method(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "clock.py").write_text(self.CLOCK)
        (package / "report.py").write_text(self.REPORT)
        report = lint_paths([str(package)], select=["DT201"])
        lines = self.REPORT.splitlines()
        fired = sorted(lines[v.line - 1].strip() for v in report.violations)
        assert fired == ["return FooResult(started=now())",
                         "return FooResult(started=stamper.mark_wallclock())"]
        reasons = sorted(v.message.split(" — ")[1].split(" [")[0]
                         for v in report.violations)
        assert reasons == ["via repro.clock.Stamper.mark_wallclock",
                           "via repro.clock.now"]


# --------------------------------------------------------------------------
# RT3xx: round-trip completeness
# --------------------------------------------------------------------------


class TestRoundTripCompleteness:
    def test_unserialized_field_fires(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    b: float = 0.0\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'a': self.a}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        return cls(a=d['a'], b=d.get('b', 0.0))\n")
        assert hits(source, "RT301") == 1

    def test_unrestored_field_fires(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    b: float = 0.0\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'a': self.a, 'b': self.b}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        return cls(a=d['a'])\n")
        assert hits(source, "RT302") == 1

    def test_complete_pair_clean(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    b: float = 0.0\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'a': self.a, 'b': self.b}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        return cls(a=d['a'], b=d.get('b', 0.0))\n")
        assert rule_ids(source) == []

    def test_fields_loop_idiom_covers_everything(self):
        source = ("from dataclasses import dataclass, fields\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    b: float = 0.0\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {f.name: getattr(self, f.name)"
                  " for f in fields(self)}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        return cls(**{f.name: d[f.name]"
                  " for f in fields(cls)})\n")
        assert rule_ids(source) == []

    def test_fields_of_a_nested_object_does_not_cover_the_class(self):
        # fields(self.stats) walks the nested object, not Thing: a
        # field Thing never serializes must still fire.
        source = ("from dataclasses import dataclass, fields\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    b: float = 0.0\n"
                  "    stats: object = None\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        out = {'a': self.a}\n"
                  "        out['stats'] = {f.name: getattr(self.stats, f.name)"
                  " for f in fields(self.stats)}\n"
                  "        return out\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        return cls(a=d['a'], b=d.get('b', 0.0),"
                  " stats=d['stats'])\n")
        assert hits(source, "RT301") == 1

    def test_asdict_of_another_object_does_not_cover_the_class(self):
        source = ("from dataclasses import dataclass, asdict\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    b: float = 0.0\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'a': self.a, 'b': self.b}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        other = cls(a=d['a'])\n"
                  "        return cls(**asdict(other))\n")
        # The ** unpack still marks from_jsonable opaque; asdict(other)
        # alone would not.
        assert hits(source, "RT302") == 0
        source = source.replace("cls(**asdict(other))", "asdict(other)")
        assert hits(source, "RT302") == 1

    def test_self_and_cls_idioms_cover_the_class(self):
        source = ("from dataclasses import dataclass, asdict, fields\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    b: float = 0.0\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return asdict(self)\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        thing = cls()\n"
                  "        for f in fields(cls):\n"
                  "            setattr(thing, f.name, d[f.name])\n"
                  "        return thing\n")
        assert rule_ids(source) == []

    def test_stale_key_read_fires(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {'a': self.a}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        return cls(a=d.get('legacy_a', 0.0))\n")
        assert hits(source, "RT303") == 1

    def test_non_dataclass_pair_skipped(self):
        source = ("class Thing:\n"
                  "    def __init__(self) -> None:\n"
                  "        self.a = 0.0\n"
                  "    def to_jsonable(self) -> dict:\n"
                  "        return {}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        return cls()\n")
        assert hits(source, "RT301") == 0

    def test_suppression_applies_to_project_rules(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Thing:\n"
                  "    a: float = 0.0\n"
                  "    b: float = 0.0\n"
                  "    def to_jsonable(self) -> dict:"
                  "  # repro-lint: disable=RT301 b is derived on load\n"
                  "        return {'a': self.a}\n"
                  "    @classmethod\n"
                  "    def from_jsonable(cls, d: dict) -> 'Thing':\n"
                  "        return cls(a=d['a'], b=d.get('b', 0.0))\n")
        assert hits(source, "RT301") == 0


# --------------------------------------------------------------------------
# Registry scopes and the per-file analysis entry point
# --------------------------------------------------------------------------


class TestRegistryGrowth:
    def test_new_rule_ids_registered(self):
        ids = {rule.id for rule in all_rules() if rule.scope == "project"}
        assert ids == {"DT201", "DT202", "DT203",
                       "RT301", "RT302", "RT303"}

    def test_scopes(self):
        assert get_rule("D001").scope == "file"
        assert get_rule("DT201").scope == "project"
        assert get_rule("RT301").scope == "project"


class TestAnalyzeFileApi:
    def test_entry_is_json_serializable(self):
        entry = analyze_file("import time\nt = time.time()\n", FAKE)
        clone = json.loads(json.dumps(entry))
        assert clone["summary"]["module"] == "repro.fake_module"
        assert clone["violations"][0]["rule"] == "D002"

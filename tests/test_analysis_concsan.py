"""Tests for REP011, crash consistency of durable state.

REP011 is the surviving rule of the former concurrency family; the
lock-discipline and fork/spawn rules were deleted once a census
(``tests/test_analysis_census.py``) showed ``src/repro`` builds no
mutex and spawns no process from a method.  Positive, negative and
suppression fixtures per shape, plus the whole-repo gate.
"""

from __future__ import annotations

from repro.analysis.lint import default_target, lint_paths, lint_text


def rep(source, relpath="mod.py", rules=("REP011",)):
    return [
        (f.rule, f.line) for f in lint_text(source, relpath, rules=rules)
    ]


# ----------------------------------------------------------------------
# REP011 — crash consistency
# ----------------------------------------------------------------------

RAW_APPEND = (
    "def save(path, line):\n"
    "    with open(path, 'a') as handle:\n"
    "        handle.write(line)\n"
)


class TestRep011:
    def test_raw_append_in_journal_module(self):
        findings = lint_text(RAW_APPEND, "journal.py", rules=["REP011"])
        assert [(f.rule, f.line) for f in findings] == [("REP011", 2)]
        assert "torn-write story" in findings[0].message

    def test_same_write_in_unrelated_module_passes(self):
        assert rep(RAW_APPEND, "notes.py", rules=("REP011",)) == []

    def test_atomic_writer_passes(self):
        src = (
            "from repro.runstate.atomic import append_durable_line\n"
            "def save(path, line):\n"
            "    append_durable_line(path, line)\n"
        )
        assert rep(src, "journal.py", rules=("REP011",)) == []

    def test_runstate_write_side_exempt(self):
        # runstate/ IS the sanctioned torn-write-safe implementation.
        assert (
            rep(RAW_APPEND, "repro/runstate/journal.py", rules=("REP011",))
            == []
        )

    def test_json_dump_in_bench_module(self):
        src = (
            "import json\n"
            "def emit(rows, handle):\n"
            "    json.dump(rows, handle)\n"
        )
        assert rep(src, "bench_report.py", rules=("REP011",)) == [
            ("REP011", 3)
        ]

    def test_untolerated_parse_flagged(self):
        src = (
            "import json\n"
            "def load(line):\n"
            "    return json.loads(line)\n"
        )
        findings = lint_text(src, "journal.py", rules=["REP011"])
        assert [(f.rule, f.line) for f in findings] == [("REP011", 3)]
        assert "torn-record tolerance" in findings[0].message

    def test_tolerant_parse_passes(self):
        src = (
            "import json\n"
            "def load(line):\n"
            "    try:\n"
            "        return json.loads(line)\n"
            "    except ValueError:\n"
            "        return None\n"
        )
        assert rep(src, "journal.py", rules=("REP011",)) == []

    def test_runstate_read_side_not_exempt(self):
        # Even the sanctioned writer package must tolerate torn reads.
        src = (
            "import json\n"
            "def load(line):\n"
            "    return json.loads(line)\n"
        )
        assert rep(src, "repro/runstate/journal.py", rules=("REP011",)) == [
            ("REP011", 3)
        ]

    def test_intolerant_handler_does_not_count(self):
        src = (
            "import json\n"
            "def load(line):\n"
            "    try:\n"
            "        return json.loads(line)\n"
            "    except KeyError:\n"
            "        return None\n"
        )
        assert rep(src, "journal.py", rules=("REP011",)) == [("REP011", 4)]

    def test_noqa_suppresses(self):
        src = (
            "def save(path, line):\n"
            "    with open(path, 'a') as handle:  # repro: noqa REP011\n"
            "        handle.write(line)\n"
        )
        assert rep(src, "journal.py", rules=("REP011",)) == []


# ----------------------------------------------------------------------
# Multi-rule suppression and whole-repo gates
# ----------------------------------------------------------------------


class TestMultiRuleNoqa:
    def test_one_pragma_listing_both_rules(self):
        src = (
            "import json\n"
            "import time\n"
            "class JournalBox:\n"
            "    def stamp(self):\n"
            "        return time.time()  # repro: noqa REP001,REP011\n"
            "    def load(self, text):\n"
            "        return json.loads(text)  # repro: noqa REP001,REP011\n"
        )
        # Full run: both findings suppressed, neither pragma is stale
        # (each suppressed at least one of its listed rules).
        assert lint_text(src, "journal_box.py") == []


class TestRepoTree:
    def test_concsan_rules_clean_on_repo(self):
        findings, errors = lint_paths(
            [default_target()], rules=["REP011"]
        )
        assert errors == []
        assert findings == []

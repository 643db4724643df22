"""Tests for the repro.analysis.lint static-analysis pass.

Each REP rule gets a positive fixture (the violation fires), a negative
fixture (the compliant spelling stays quiet) and a suppression fixture
(``# repro: noqa`` silences it).  The project-wide REP004 rule is
exercised over a small on-disk tree.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import ALL_RULES, RULE_SUMMARIES, lint_paths, lint_text
from repro.analysis.__main__ import main as lint_main
from repro.analysis.noqa import Suppressions


def rules_of(source: str, relpath: str = "mod.py") -> list[str]:
    return [f.rule for f in lint_text(source, relpath)]


# ----------------------------------------------------------------------
# REP001 — nondeterminism sources
# ----------------------------------------------------------------------


class TestRep001:
    def test_wall_clock(self):
        assert rules_of("import time\nt = time.time()\n") == ["REP001"]

    def test_datetime_now(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert rules_of(src) == ["REP001"]

    def test_os_urandom(self):
        assert rules_of("import os\nb = os.urandom(8)\n") == ["REP001"]

    def test_global_random(self):
        assert rules_of("import random\nx = random.random()\n") == ["REP001"]

    def test_numpy_legacy_global_rng(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert rules_of(src) == ["REP001"]

    def test_alias_resolution(self):
        src = "import numpy.random as nr\nx = nr.shuffle([1])\n"
        assert rules_of(src) == ["REP001"]

    def test_unseeded_default_rng(self):
        src = "import numpy as np\nr = np.random.default_rng()\n"
        assert rules_of(src) == ["REP001"]

    def test_unseeded_random_instance(self):
        assert rules_of("import random\nr = random.Random()\n") == ["REP001"]

    def test_id_call(self):
        assert rules_of("k = id(object())\n") == ["REP001"]

    def test_seeded_rngs_pass(self):
        src = (
            "import random\n"
            "import numpy as np\n"
            "a = np.random.default_rng(42)\n"
            "b = random.Random(7)\n"
        )
        assert rules_of(src) == []

    def test_line_noqa(self):
        src = "import time\nt = time.time()  # repro: noqa REP001\n"
        assert rules_of(src) == []

    def test_bare_noqa_suppresses_all(self):
        src = "import time\nt = time.time()  # repro: noqa\n"
        assert rules_of(src) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        src = "import time\nt = time.time()  # repro: noqa REP003\n"
        # The REP001 finding survives, and the REP003 pragma (which
        # suppressed nothing) is itself flagged as stale.
        assert rules_of(src) == ["REP000", "REP001"]


# ----------------------------------------------------------------------
# REP002 — hash-ordered iteration
# ----------------------------------------------------------------------


class TestRep002:
    def test_for_over_set_literal_name(self):
        assert rules_of("s = {1, 2}\nfor x in s:\n    pass\n") == ["REP002"]

    def test_sum_over_set(self):
        assert rules_of("s = set()\nt = sum(s)\n") == ["REP002"]

    def test_fromiter_over_set(self):
        src = "import numpy as np\ns = {1}\na = np.fromiter(s, dtype=int)\n"
        assert rules_of(src) == ["REP002"]

    def test_annotated_self_attribute(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._movable: set[int] = set()\n"
            "    def release(self):\n"
            "        return list(self._movable)\n"
        )
        assert rules_of(src) == ["REP002"]

    def test_tuple_unpack_from_annotated_dict(self):
        """The page-cache pattern: a set inside a dict-of-tuples."""
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._files: dict[str, tuple[int, set[int]]] = {}\n"
            "    def evict(self, name):\n"
            "        entry = self._files.pop(name, None)\n"
            "        node_id, frames = entry\n"
            "        for f in frames:\n"
            "            pass\n"
        )
        assert rules_of(src) == ["REP002"]

    def test_sorted_iteration_passes(self):
        assert rules_of("s = {1, 2}\nfor x in sorted(s):\n    pass\n") == []

    def test_dict_values_pass(self):
        """Dicts are insertion-ordered; only sets are flagged."""
        src = "d = {1: 2}\nfor v in d.values():\n    pass\n"
        assert rules_of(src) == []

    def test_membership_passes(self):
        assert rules_of("s = {1, 2}\nok = 1 in s\n") == []

    def test_noqa(self):
        src = "s = {1}\nfor x in s:  # repro: noqa REP002\n    pass\n"
        assert rules_of(src) == []


# ----------------------------------------------------------------------
# REP003 — unit safety
# ----------------------------------------------------------------------


class TestRep003:
    def test_add_mixed_units(self):
        src = "def f(n_bytes, n_frames):\n    return n_bytes + n_frames\n"
        assert rules_of(src) == ["REP003"]

    def test_compare_mixed_units(self):
        src = "def f(n_pages, n_regions):\n    return n_pages < n_regions\n"
        assert rules_of(src) == ["REP003"]

    def test_attribute_suffixes(self):
        src = "def f(a, b):\n    return a.free_bytes - b.num_frames\n"
        assert rules_of(src) == ["REP003"]

    def test_same_unit_passes(self):
        src = "def f(a_bytes, b_bytes):\n    return a_bytes + b_bytes\n"
        assert rules_of(src) == []

    def test_multiplication_is_conversion(self):
        src = "def f(n_frames, frame_bytes):\n    return n_frames * frame_bytes\n"
        assert rules_of(src) == []

    def test_units_helper_exempts(self):
        src = (
            "from repro.units import frames_to_bytes\n"
            "def f(n_bytes, n_frames):\n"
            "    return n_bytes + frames_to_bytes(n_frames, 4096)\n"
        )
        assert rules_of(src) == []

    def test_noqa(self):
        src = (
            "def f(n_bytes, n_frames):\n"
            "    return n_bytes + n_frames  # repro: noqa REP003\n"
        )
        assert rules_of(src) == []


# ----------------------------------------------------------------------
# REP004 — fault-site completeness (project-wide)
# ----------------------------------------------------------------------

SITES_SRC = """\
from enum import Enum


class FaultSite(Enum):
    ALLOC = "alloc"
    RECLAIM = "reclaim"
"""


class TestRep004:
    def write_tree(self, tmp_path, user_src):
        faults = tmp_path / "faults"
        faults.mkdir()
        (faults / "sites.py").write_text(SITES_SRC)
        (tmp_path / "user.py").write_text(user_src)

    def test_unwired_member_flagged(self, tmp_path):
        self.write_tree(
            tmp_path,
            "from faults.sites import FaultSite\n"
            "def f(inj):\n"
            "    inj.check(FaultSite.ALLOC)\n",
        )
        findings, errors = lint_paths(
            [str(tmp_path)], rules=["REP004"], root=str(tmp_path)
        )
        assert errors == []
        assert [f.rule for f in findings] == ["REP004"]
        assert "RECLAIM" in findings[0].message
        assert findings[0].path.endswith("faults/sites.py")

    def test_unknown_member_flagged(self, tmp_path):
        self.write_tree(
            tmp_path,
            "from faults.sites import FaultSite\n"
            "def f(inj):\n"
            "    inj.check(FaultSite.ALLOC)\n"
            "    inj.check(FaultSite.RECLAIM)\n"
            "    inj.check(FaultSite.GHOST)\n",
        )
        findings, _ = lint_paths(
            [str(tmp_path)], rules=["REP004"], root=str(tmp_path)
        )
        assert [f.rule for f in findings] == ["REP004"]
        assert "GHOST" in findings[0].message

    def test_fully_wired_passes(self, tmp_path):
        self.write_tree(
            tmp_path,
            "from faults.sites import FaultSite\n"
            "def f(inj):\n"
            "    inj.check(FaultSite.ALLOC)\n"
            "    inj.check(FaultSite.RECLAIM)\n",
        )
        findings, _ = lint_paths(
            [str(tmp_path)], rules=["REP004"], root=str(tmp_path)
        )
        assert findings == []

    def test_repo_tree_is_fully_wired(self):
        from repro.analysis.lint import default_target

        findings, errors = lint_paths([default_target()], rules=["REP004"])
        assert errors == []
        assert findings == []


# ----------------------------------------------------------------------
# REP005 — ledger hygiene
# ----------------------------------------------------------------------


class TestRep005:
    def test_direct_counter_mutation(self):
        src = "def f(ledger):\n    ledger.counts['x'] += 1\n"
        assert rules_of(src) == ["REP005"]

    def test_counter_method_call(self):
        src = "def f(ledger):\n    ledger.cycles.update({'x': 1})\n"
        assert rules_of(src) == ["REP005"]

    def test_raw_add_call(self):
        src = "def f(ledger):\n    ledger.add('x', 1, 2.0)\n"
        assert rules_of(src) == ["REP005"]

    def test_charge_helpers_pass(self):
        src = "def f(ledger):\n    ledger.minor_fault(3)\n"
        assert rules_of(src) == []

    def test_reads_pass(self):
        src = "def f(ledger):\n    return dict(ledger.counts)\n"
        assert rules_of(src) == []

    def test_unrelated_counts_attribute_passes(self):
        src = "def f(trace):\n    trace.counts['x'] += 1\n"
        assert rules_of(src) == []

    def test_stats_module_is_exempt(self):
        src = "def f(ledger):\n    ledger.counts['x'] += 1\n"
        assert rules_of(src, relpath="src/repro/mem/stats.py") == []


# ----------------------------------------------------------------------
# REP006 — __all__ hygiene
# ----------------------------------------------------------------------


class TestRep006:
    def test_dangling_export(self):
        src = "from .a import b\n__all__ = ['b', 'ghost']\n"
        findings = lint_text(src, "pkg/__init__.py")
        assert [f.rule for f in findings] == ["REP006"]
        assert "ghost" in findings[0].message

    def test_missing_export(self):
        src = "from .a import b, c\n__all__ = ['b']\n"
        findings = lint_text(src, "pkg/__init__.py")
        assert [f.rule for f in findings] == ["REP006"]
        assert "c" in findings[0].message

    def test_duplicate_export(self):
        src = "from .a import b\n__all__ = ['b', 'b']\n"
        findings = lint_text(src, "pkg/__init__.py")
        assert [f.rule for f in findings] == ["REP006"]

    def test_exact_match_passes(self):
        src = "from .a import b, c\n__all__ = ['b', 'c']\n"
        assert lint_text(src, "pkg/__init__.py") == []

    def test_private_names_ignored(self):
        src = "from .a import b\n_internal = 1\n__all__ = ['b']\n"
        assert lint_text(src, "pkg/__init__.py") == []

    def test_non_init_files_not_audited(self):
        src = "from a import b\n__all__ = ['b', 'ghost']\n"
        assert lint_text(src, "pkg/mod.py") == []


# ----------------------------------------------------------------------
# REP007 — durable-write discipline
# ----------------------------------------------------------------------


class TestRep007:
    def test_open_write_on_journal_path(self):
        src = "handle = open(journal_path, 'w')\n"
        assert rules_of(src) == ["REP007"]

    def test_open_append_on_journal_path(self):
        src = "handle = open(self.journal, mode='a')\n"
        assert rules_of(src) == ["REP007"]

    def test_open_read_passes(self):
        src = "handle = open(journal_path, 'r')\n"
        assert rules_of(src) == []

    def test_open_write_on_unrelated_path_passes(self):
        src = "handle = open(trace_path, 'w')\n"
        assert rules_of(src) == []

    def test_json_dump_on_results(self):
        src = "import json\njson.dump(rows, results_file)\n"
        assert rules_of(src) == ["REP007"]

    def test_write_text_on_results_path(self):
        src = "(out_dir / f'{result.figure_id}.txt').write_text(text)\n"
        assert rules_of(src) == ["REP007"]

    def test_write_text_on_unrelated_path_passes(self):
        src = "(out_dir / 'notes.txt').write_text(text)\n"
        assert rules_of(src) == []

    def test_runstate_package_exempt(self):
        src = "handle = open(journal_path, 'w')\n"
        assert lint_text(src, "repro/runstate/atomic.py") == []

    def test_noqa_suppresses(self):
        src = "h = open(journal_path, 'w')  # repro: noqa REP007\n"
        assert rules_of(src) == []


# ----------------------------------------------------------------------
# Suppressions, driver, CLI
# ----------------------------------------------------------------------


class TestRep000:
    """Unused-suppression reporting: stale pragmas rot visibly."""

    def test_unused_pragma_reported(self):
        findings = lint_text("x = 1  # repro: noqa REP001\n", "m.py")
        assert [f.rule for f in findings] == ["REP000"]
        assert "REP001" in findings[0].message

    def test_unused_bare_noqa_reported(self):
        findings = lint_text("x = 1  # repro: noqa\n", "m.py")
        assert [f.rule for f in findings] == ["REP000"]
        assert "all rules" in findings[0].message

    def test_used_pragma_not_reported(self):
        src = "import time\nt = time.time()  # repro: noqa REP001\n"
        assert rules_of(src) == []

    def test_multi_rule_pragma_used_by_one_rule_is_not_stale(self):
        src = "import time\nt = time.time()  # repro: noqa REP001,REP011\n"
        assert rules_of(src) == []

    def test_not_reported_on_rule_subset_runs(self):
        # A subset run cannot tell whether the pragma is stale — the
        # rule it names may simply not have run.
        src = "x = 1  # repro: noqa REP002\n"
        assert lint_text(src, rules=["REP001"]) == []

    def test_docstring_describing_pragma_is_not_a_pragma(self):
        src = '"""Use ``# repro: noqa REP001`` to suppress."""\nx = 1\n'
        assert rules_of(src) == []


class TestPragmaSpans:
    """A pragma anywhere on a statement covers the whole statement."""

    def test_pragma_on_last_line_of_multiline_call(self):
        src = "import time\nt = time.time(\n)  # repro: noqa REP001\n"
        assert rules_of(src) == []

    def test_pragma_on_decorator_covers_signature(self):
        src = (
            "import functools\n"
            "import time\n"
            "@functools.lru_cache  # repro: noqa REP001\n"
            "def f(x=time.time()):\n"
            "    return x\n"
        )
        assert rules_of(src) == []

    def test_def_pragma_does_not_blanket_the_body(self):
        src = (
            "import time\n"
            "def f():  # repro: noqa REP001\n"
            "    return time.time()\n"
        )
        # The body's REP001 is NOT covered by the header pragma, so it
        # fires — and the header pragma is reported stale.
        assert rules_of(src) == ["REP000", "REP001"]

    def test_innermost_statement_wins(self):
        src = (
            "import time\n"
            "with open('f') as h:\n"
            "    t = time.time()  # repro: noqa REP001\n"
            "    u = time.time()\n"
        )
        # The pragma covers its own assignment, not the whole `with`.
        assert rules_of(src) == ["REP001"]


# ----------------------------------------------------------------------
# REP012 — vectorized trace discipline
# ----------------------------------------------------------------------


class TestRep012:
    def test_for_over_trace_attribute(self):
        src = "for key in trace.run_keys:\n    total += key\n"
        assert rules_of(src) == ["REP012"]

    def test_zip_over_trace_arrays(self):
        src = (
            "for key, count in zip(trace.run_keys, trace.run_counts):\n"
            "    pass\n"
        )
        assert rules_of(src) == ["REP012"]

    def test_lookup_view_unpack_then_loop(self):
        src = (
            "keys, aids = trace.lookup_view()\n"
            "for key in keys:\n"
            "    pass\n"
        )
        assert rules_of(src) == ["REP012"]

    def test_range_len_indexed_loop(self):
        src = (
            "keys = trace.run_keys\n"
            "for i in range(len(keys)):\n"
            "    k = keys[i]\n"
        )
        assert rules_of(src) == ["REP012"]

    def test_comprehension_over_tolist(self):
        src = "hot = [k for k in trace.lookup_keys.tolist() if k & 1]\n"
        assert rules_of(src) == ["REP012"]

    def test_taint_through_astype(self):
        src = (
            "narrow = trace.run_keys.astype('int32')\n"
            "for key in narrow:\n"
            "    pass\n"
        )
        assert rules_of(src) == ["REP012"]

    def test_vectorized_consumption_passes(self):
        src = (
            "import numpy as np\n"
            "keys, aids = trace.lookup_view()\n"
            "misses = np.bincount(aids, minlength=8)\n"
            "total = int(trace.run_counts.sum())\n"
        )
        assert rules_of(src) == []

    def test_engine_and_hierarchy_are_exempt(self):
        src = "for key in trace.run_keys:\n    pass\n"
        assert rules_of(src, "repro/tlb/engine.py") == []
        assert rules_of(src, "repro/tlb/hierarchy.py") == []

    def test_unrelated_loops_pass(self):
        src = "for chunk in chunks:\n    process(chunk)\n"
        assert rules_of(src) == []

    def test_noqa(self):
        src = (
            "for key in trace.run_keys:  # repro: noqa REP012\n"
            "    pass\n"
        )
        assert rules_of(src) == []


# ----------------------------------------------------------------------
# REP013 — policy hook sandbox
# ----------------------------------------------------------------------


def rep013_of(source: str, relpath: str = "mod.py") -> list[str]:
    return [f.rule for f in lint_text(source, relpath, rules=["REP013"])]


def _hook(body: str) -> str:
    """A minimal PagePolicy class with ``body`` inside on_fault."""
    lines = "".join(f"        {line}\n" for line in body.splitlines())
    return (
        "import time\n"
        "import random\n"
        "import numpy as np\n"
        "class Hook:\n"
        "    name = 'fixture'\n"
        "    def on_fault(self, ctx, view):\n"
        f"{lines}"
        "        return None\n"
    )


class TestRep013:
    def test_wall_clock_in_hook(self):
        assert rep013_of(_hook("t = time.time()")) == ["REP013"]

    def test_ambient_numpy_rng_in_hook(self):
        assert rep013_of(_hook("r = np.random.random()")) == ["REP013"]

    def test_seeded_rng_module_still_banned(self):
        # Even a seeded RNG makes the decision depend on call order,
        # not on the hook's inputs.
        assert rep013_of(_hook("r = random.Random(7).random()")) == [
            "REP013"
        ]

    def test_view_attribute_write(self):
        assert rep013_of(_hook("view.cached = 1")) == ["REP013"]

    def test_view_nested_write(self):
        assert rep013_of(_hook("view.vmm.node.frames[0] = 1")) == [
            "REP013"
        ]

    def test_view_setattr(self):
        assert rep013_of(_hook("setattr(view, 'x', 1)")) == ["REP013"]

    def test_import_outside_allowlist(self):
        assert rep013_of(_hook("import os")) == ["REP013"]

    def test_import_from_outside_allowlist(self):
        assert rep013_of(_hook("from pathlib import Path")) == ["REP013"]

    def test_open_in_hook(self):
        src = _hook("fh = open('/tmp/x')\nfh.close()")
        assert rep013_of(src) == ["REP013"]

    def test_compliant_hook_passes(self):
        src = _hook(
            "import math\n"
            "score = math.log1p(view.free_frames)\n"
            "names = view.vma_names()"
        )
        assert rep013_of(src) == []

    def test_all_three_decision_points_are_covered(self):
        src = (
            "import time\n"
            "class Hook:\n"
            "    def on_khugepaged_scan(self, candidates, view):\n"
            "        time.time()\n"
            "        return ()\n"
            "    def on_demote_scan(self, candidates, view):\n"
            "        time.time()\n"
            "        return ()\n"
        )
        assert rep013_of(src) == ["REP013", "REP013"]

    def test_epoch_hook_is_covered(self):
        src = (
            "import time\n"
            "class Manager:\n"
            "    def on_iteration(self, candidates, view):\n"
            "        time.time()\n"
            "        return ()\n"
        )
        assert rep013_of(src) == ["REP013"]

    def test_banned_calls_outside_hooks_stay_rep013_silent(self):
        # Wall clocks elsewhere are REP001's business, not REP013's.
        src = "import time\ndef helper():\n    return time.time()\n"
        assert rep013_of(src) == []

    def test_noqa(self):
        assert rep013_of(_hook("t = time.time()  # repro: noqa REP013")) == []


class TestBaseline:
    def _write_bad(self, tmp_path, extra=""):
        (tmp_path / "bad.py").write_text(
            "import time\nt = time.time()\n" + extra
        )

    def test_update_then_ratchet(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        baseline = str(tmp_path / "base.json")
        assert lint_main(
            [str(tmp_path), "--update-baseline", baseline]
        ) == 0
        # Baselined findings no longer fail the run...
        assert lint_main([str(tmp_path), "--baseline", baseline]) == 0
        # ...but a new occurrence of the same defect still does.
        self._write_bad(tmp_path, extra="u = time.time()\n")
        assert lint_main([str(tmp_path), "--baseline", baseline]) == 1

    def test_line_shifts_do_not_invalidate_baseline(self, tmp_path):
        self._write_bad(tmp_path)
        baseline = str(tmp_path / "base.json")
        lint_main([str(tmp_path), "--update-baseline", baseline])
        (tmp_path / "bad.py").write_text(
            "# one\n# two\n# three\nimport time\nt = time.time()\n"
        )
        assert lint_main([str(tmp_path), "--baseline", baseline]) == 0

    def test_json_reports_baselined_count(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        baseline = str(tmp_path / "base.json")
        lint_main([str(tmp_path), "--update-baseline", baseline])
        capsys.readouterr()
        assert lint_main(
            [str(tmp_path), "--baseline", baseline, "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["baselined"] == 1

    def test_malformed_baseline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "base.json"
        bad.write_text("{}")
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as err:
            lint_main([str(tmp_path), "--baseline", str(bad)])
        assert err.value.code == 2

    def test_repo_baseline_is_empty(self):
        """The shipped ratchet starts clean: no tolerated findings."""
        from repro.analysis.baseline import (
            DEFAULT_BASELINE_PATH,
            load_baseline,
        )

        assert load_baseline(DEFAULT_BASELINE_PATH) == {}


class TestSuppressions:
    def test_file_level_pragma(self):
        src = "# repro: noqa-file REP001\nimport time\nt = time.time()\n"
        assert rules_of(src) == []

    def test_file_pragma_outside_window_ignored(self):
        filler = "x = 1\n" * 12
        src = filler + "# repro: noqa-file REP001\nimport time\nt = time.time()\n"
        assert rules_of(src) == ["REP001"]

    def test_multiple_codes(self):
        supp = Suppressions.from_source("x = 1  # repro: noqa REP001, REP003\n")
        assert supp.is_suppressed(1, "REP001")
        assert supp.is_suppressed(1, "REP003")
        assert not supp.is_suppressed(1, "REP002")
        assert not supp.is_suppressed(2, "REP001")


class TestDriver:
    def test_findings_sorted_and_rendered(self):
        src = "import time\nb = time.time()\na = time.time()\n"
        findings = lint_text(src, "m.py")
        assert [f.line for f in findings] == [2, 3]
        assert findings[0].render().startswith("m.py:2:")

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            lint_text("x = 1\n", rules=["REP999"])

    def test_rule_catalogue_complete(self):
        assert ALL_RULES == tuple(sorted(RULE_SUMMARIES))
        assert len(ALL_RULES) == 12

    def test_syntax_error_reported_not_fatal(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "good.py").write_text("import time\nt = time.time()\n")
        findings, errors = lint_paths([str(tmp_path)], root=str(tmp_path))
        assert len(errors) == 1 and "bad.py" in errors[0]
        assert [f.rule for f in findings] == ["REP001"]


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0

    def test_findings_exit_one_text(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "bad.py" in out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == []
        assert payload["findings"][0]["rule"] == "REP001"
        assert payload["findings"][0]["line"] == 2

    def test_rule_selection(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert lint_main([str(tmp_path), "--rules", "REP002"]) == 0
        assert lint_main([str(tmp_path), "--rules", "REP001"]) == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out

    def test_repo_tree_is_clean(self):
        """The acceptance gate: the shipped tree has zero findings."""
        assert lint_main([]) == 0

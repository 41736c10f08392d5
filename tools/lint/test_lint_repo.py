#!/usr/bin/env python3
"""Fixture tests for tools/lint/lint_repo.py.

Each test builds a minimal repo tree in a tempdir containing exactly one
violation class, runs the linter against it, and asserts the expected
diagnostic code and exit code. Driven by ctest (`lint_selftest`) and
runnable directly: python3 tools/lint/test_lint_repo.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lint_repo  # noqa: E402


def run_linter(root: Path, *extra: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = lint_repo.main(["--root", str(root), *extra])
    return code, out.getvalue()


class FixtureTree:
    """A throwaway repo tree; write(path, text) creates parents as needed."""

    def __init__(self, tmp: Path):
        self.root = tmp
        (tmp / "src").mkdir()

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


class LintRepoTest(unittest.TestCase):
    STORE_ROW = ("src/tsdb/store.hpp", "StoreOptions")

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tree = FixtureTree(Path(self._tmp.name))
        # A fixture tree holds none of the repo's knob headers, so every
        # real KNOB_STRUCTS row would be stale here: tests name their own.
        self.knob_rows()

    def knob_rows(self, *rows):
        patcher = mock.patch.object(lint_repo.Linter, "KNOB_STRUCTS", rows)
        patcher.start()
        self.addCleanup(patcher.stop)

    def tearDown(self):
        self._tmp.cleanup()

    # -- clean tree ---------------------------------------------------------
    def test_clean_tree_exits_zero(self):
        self.tree.write(
            "src/util/cache.hpp",
            "class Cache {\n"
            "  util::Mutex mu_;\n"
            "  int x_ TACC_GUARDED_BY(mu_);\n"
            "};\n",
        )
        self.tree.write("tests/CMakeLists.txt", "ts_test(test_cache)\n")
        self.tree.write("tests/test_cache.cpp", "// ok\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)
        self.assertEqual(out, "")

    # -- TS001 --------------------------------------------------------------
    def test_unannotated_mutex_flagged(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n  std::mutex mu_;\n  int x_;\n};\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS001", out)
        self.assertIn("src/core/state.hpp:2", out)
        self.assertIn("mu_", out)

    def test_unannotated_atomic_flagged(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n  std::atomic<int> hits_{0};\n};\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS001", out)
        self.assertIn("hits_", out)

    def test_allowlisted_primitive_passes(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n  std::atomic<int> hits_{0};\n};\n",
        )
        self.tree.write(
            "tools/lint/concurrency_allowlist.txt",
            "# reasons matter\nsrc/core/state.hpp:hits_  lock-free counter\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    def test_commented_out_primitive_ignored(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n  // std::mutex old_mu_;\n};\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    # -- TS002 --------------------------------------------------------------
    def test_unreferenced_capability_flagged(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n  util::Mutex mu_;\n  int x_;\n};\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS002", out)
        self.assertIn("never referenced", out)

    def test_excludes_annotation_counts_as_reference(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n"
            "  void poke() TACC_EXCLUDES(mu_);\n"
            "  util::Mutex mu_;\n"
            "};\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    # -- TS003 --------------------------------------------------------------
    def test_allowlist_entry_for_missing_file_flagged(self):
        self.tree.write(
            "tools/lint/concurrency_allowlist.txt",
            "# header\nsrc/util/gone.hpp:head_  deleted with its file\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS003", out)
        self.assertIn("concurrency_allowlist.txt:2", out)
        self.assertIn("does not exist", out)

    def test_allowlist_entry_for_missing_identifier_flagged(self):
        self.tree.write(
            "src/core/state.cpp",
            "std::mutex mu;\n"
            "std::size_t hits = 0;  // plain counter now\n"
            "std::thread worker;    // threads are not primitives\n",
        )
        self.tree.write(
            "tools/lint/concurrency_allowlist.txt",
            "src/core/state.cpp:mu      local latch\n"
            "src/core/state.cpp:hits    was an atomic\n"
            "src/core/state.cpp:worker  not a primitive\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("'src/core/state.cpp:hits'", out)
        self.assertIn("'src/core/state.cpp:worker'", out)
        self.assertNotIn("'src/core/state.cpp:mu'", out)
        self.assertIn("2 violation(s)", out)

    def test_live_allowlist_entries_pass(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n"
            "  std::atomic<int> hits_{0};\n"
            "  util::Mutex mu_;\n"
            "};\n",
        )
        self.tree.write(
            "tools/lint/concurrency_allowlist.txt",
            "src/core/state.hpp:hits_  lock-free counter\n"
            "src/core/state.hpp:mu_    guards the stream itself\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    # -- TS010 --------------------------------------------------------------
    def test_unregistered_collector_flagged(self):
        self.tree.write(
            "src/collect/collectors.hpp",
            "class FooCollector final : public Collector {};\n"
            "class BarCollector final : public Collector {};\n",
        )
        self.tree.write(
            "src/collect/registry.cpp",
            "out.push_back(std::make_unique<FooCollector>());\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS010", out)
        self.assertIn("BarCollector", out)
        self.assertNotIn("FooCollector' is not registered", out)

    # -- TS011 --------------------------------------------------------------
    def test_unknown_fault_site_flagged(self):
        self.tree.write(
            "src/util/fault.hpp",
            'inline constexpr std::string_view kFaultBrokerPublish =\n'
            '    "broker.publish";\n',
        )
        self.tree.write("tests/CMakeLists.txt", "ts_test(test_faults)\n")
        self.tree.write(
            "tests/test_faults.cpp",
            'plan.set("broker.publish", spec);\n'
            'plan.set("borker.publish", spec);  // typo: never fires\n',
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS011", out)
        self.assertIn("borker.publish", out)
        self.assertIn("tests/test_faults.cpp:2", out)
        self.assertNotIn("'broker.publish' is not declared", out)

    def test_fault_site_in_bench_checked_too(self):
        self.tree.write(
            "src/util/fault.hpp",
            'inline constexpr std::string_view kFaultCronRsync =\n'
            '    "cron.rsync";\n',
        )
        self.tree.write(
            "bench/bench_chaos.cpp",
            'plan->decide("cron.resync", "h", 1, now);\n',
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS011", out)
        self.assertIn("cron.resync", out)

    def test_wrapped_and_inline_site_literals_pass(self):
        self.tree.write(
            "src/util/fault.hpp",
            'inline constexpr std::string_view kFaultDaemonPublish =\n'
            '    "daemon.publish";\n',
        )
        # A site consulted inline in src/ counts as declared even without
        # a kFault* constant.
        self.tree.write(
            "src/transport/extra.cpp",
            'faults->decide("extra.site", host, salt, now);\n',
        )
        self.tree.write("tests/CMakeLists.txt", "ts_test(test_faults)\n")
        self.tree.write(
            "tests/test_faults.cpp",
            'plan.set(std::string("daemon.publish"), spec);\n'
            'plan.spec("extra.site");\n'
            '// plan.set("commented.out", spec); is ignored\n',
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    def test_non_site_dotted_strings_ignored(self):
        # Dotted strings not in a FaultPlan call position (rng names, file
        # names) must not be flagged.
        self.tree.write("src/util/fault.hpp", "// no sites declared\n")
        self.tree.write("tests/CMakeLists.txt", "ts_test(test_other)\n")
        self.tree.write(
            "tests/test_other.cpp",
            'util::Rng rng("chaos.soak", seed);\n'
            'spool.read_host("2016-01-01", "c400-001.local");\n',
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    # -- TS020 --------------------------------------------------------------
    def test_undocumented_knob_flagged(self):
        self.knob_rows(self.STORE_ROW)
        self.tree.write(
            "src/tsdb/store.hpp",
            "struct StoreOptions {\n"
            "  std::size_t shards = 16;\n"
            "  bool mystery_knob = false;\n"
            "};\n",
        )
        self.tree.write("docs/ARCHITECTURE.md", "`shards` is documented.\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS020", out)
        self.assertIn("mystery_knob", out)
        self.assertNotIn("shards", out.replace("mystery_knob", ""))

    def test_documented_knobs_pass(self):
        self.knob_rows(self.STORE_ROW)
        self.tree.write(
            "src/tsdb/store.hpp",
            "struct StoreOptions {\n  std::size_t shards = 16;\n};\n",
        )
        self.tree.write("docs/ARCHITECTURE.md", "| `StoreOptions::shards` |\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    def test_stale_knob_rows_flagged(self):
        self.knob_rows(self.STORE_ROW,
                       ("src/tsdb/gone.hpp", "GoneOptions"),
                       ("src/tsdb/store.hpp", "MovedOptions"))
        self.tree.write(
            "src/tsdb/store.hpp",
            "struct StoreOptions {\n  std::size_t shards = 16;\n};\n",
        )
        self.tree.write(
            "docs/ARCHITECTURE.md",
            "| `StoreOptions::shards` |\n| `GoneOptions::period` |\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS020", out)
        self.assertIn("'GoneOptions': src/tsdb/gone.hpp does not exist", out)
        self.assertIn(
            "'MovedOptions': src/tsdb/store.hpp does not declare it", out)
        # The docs' references to a stale row's struct are drift too.
        self.assertIn("TS040", out)
        self.assertIn("'GoneOptions::period'", out)
        self.assertIn("3 violation(s)", out)

    def test_stale_knob_row_points_at_its_line(self):
        row = '("src/tsdb/store.hpp", "StoreOptions")'
        real = next(
            n for n, line in enumerate(
                Path(lint_repo.__file__).read_text().splitlines(), 1)
            if row in line)
        self.knob_rows(self.STORE_ROW)  # the fixture has no store.hpp
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn(f"tools/lint/lint_repo.py:{real}:", out)

    # -- TS050 --------------------------------------------------------------
    FORMAT_HPP = (
        "// TACC_FORMAT_BEGIN(demo, 1)\n"
        "// header: magic | version | crc\n"
        "inline constexpr std::uint32_t kDemoVersion = 1;\n"
        "// TACC_FORMAT_END(demo)\n"
    )

    def pin_formats(self):
        code, out = run_linter(self.tree.root, "--update-fingerprints")
        assert code == 0, out

    def test_unpinned_format_region_flagged(self):
        self.tree.write("src/tsdb/demo.hpp", self.FORMAT_HPP)
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS050", out)
        self.assertIn("no pinned fingerprint", out)

    def test_pinned_format_region_passes(self):
        self.tree.write("src/tsdb/demo.hpp", self.FORMAT_HPP)
        self.pin_formats()
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    def test_format_change_without_version_bump_flagged(self):
        self.tree.write("src/tsdb/demo.hpp", self.FORMAT_HPP)
        self.pin_formats()
        self.tree.write(
            "src/tsdb/demo.hpp",
            self.FORMAT_HPP.replace("magic | version", "magic | shard"),
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS050", out)
        self.assertIn("without a version bump", out)

    def test_format_change_with_bump_asks_for_repin(self):
        self.tree.write("src/tsdb/demo.hpp", self.FORMAT_HPP)
        self.pin_formats()
        bumped = self.FORMAT_HPP.replace("demo, 1", "demo, 2").replace(
            "kDemoVersion = 1", "kDemoVersion = 2"
        )
        self.tree.write("src/tsdb/demo.hpp", bumped)
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("re-pin", out)
        self.pin_formats()
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    def test_whitespace_only_format_edit_passes(self):
        self.tree.write("src/tsdb/demo.hpp", self.FORMAT_HPP)
        self.pin_formats()
        self.tree.write(
            "src/tsdb/demo.hpp", self.FORMAT_HPP.replace("// header", "//  header")
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    def test_deleted_format_region_flagged(self):
        self.tree.write("src/tsdb/demo.hpp", self.FORMAT_HPP)
        self.pin_formats()
        self.tree.write("src/tsdb/demo.hpp", "// region removed\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("no longer exists", out)

    def test_unterminated_format_region_flagged(self):
        self.tree.write(
            "src/tsdb/demo.hpp", "// TACC_FORMAT_BEGIN(demo, 1)\n// no end\n"
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS050", out)
        self.assertIn("has no", out)

    # -- TS030 --------------------------------------------------------------
    def test_orphaned_test_flagged(self):
        self.tree.write("tests/CMakeLists.txt", "ts_test(test_known)\n")
        self.tree.write("tests/test_known.cpp", "// registered\n")
        self.tree.write("tests/test_orphan.cpp", "// forgotten\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS030", out)
        self.assertIn("test_orphan.cpp", out)
        self.assertNotIn("test_known.cpp' is not registered", out)

    def test_add_executable_counts_as_registration(self):
        self.tree.write(
            "tests/CMakeLists.txt", "add_executable(test_special foo.cpp)\n"
        )
        self.tree.write("tests/test_special.cpp", "// custom target\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    # -- TS040 --------------------------------------------------------------
    def test_dead_relative_link_flagged(self):
        self.tree.write("docs/GUIDE.md", "See [the plan](MISSING.md).\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS040", out)
        self.assertIn("MISSING.md", out)
        self.assertIn("docs/GUIDE.md:1", out)

    def test_resolving_links_and_urls_pass(self):
        self.tree.write("docs/OTHER.md", "target\n")
        self.tree.write(
            "README.md",
            "[docs](docs/OTHER.md), [anchor](docs/OTHER.md#sec),\n"
            "[in-page](#local), [web](https://example.com/x.md)\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    def test_readme_dead_link_flagged(self):
        self.tree.write("README.md", "[gone](docs/GONE.md)\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS040", out)
        self.assertIn("README.md:1", out)

    def test_stale_knob_reference_flagged(self):
        self.knob_rows(self.STORE_ROW)
        self.tree.write(
            "src/tsdb/store.hpp",
            "struct StoreOptions {\n  std::size_t shards = 16;\n};\n",
        )
        self.tree.write(
            "docs/ARCHITECTURE.md",
            "| `StoreOptions::shards` | ok |\n"
            "| `StoreOptions::shard_count` | renamed away |\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS040", out)
        self.assertIn("StoreOptions::shard_count", out)
        self.assertNotIn("StoreOptions::shards'", out)

    def test_non_knob_qualified_names_ignored(self):
        self.tree.write(
            "docs/NOTES.md",
            "util::Mutex and tsdb::Store are not knob structs.\n",
        )
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 0, out)

    # -- CLI ----------------------------------------------------------------
    def test_missing_root_is_usage_error(self):
        code, out = run_linter(self.tree.root / "nonexistent")
        self.assertEqual(code, 2, out)

    def test_multiple_violations_all_reported(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n  std::mutex mu_;\n};\n",
        )
        self.tree.write("tests/CMakeLists.txt", "\n")
        self.tree.write("tests/test_orphan.cpp", "// forgotten\n")
        code, out = run_linter(self.tree.root)
        self.assertEqual(code, 1, out)
        self.assertIn("TS001", out)
        self.assertIn("TS030", out)
        self.assertIn("2 violation(s)", out)

    # -- output modes (shared lint_output helper) ---------------------------
    def test_json_output_mode(self):
        import json

        self.tree.write(
            "src/core/state.hpp",
            "class State {\n  std::mutex mu_;\n};\n",
        )
        code, out = run_linter(self.tree.root, "--json")
        self.assertEqual(code, 1, out)
        doc = json.loads(out[:out.rindex("lint_repo:")])
        self.assertEqual(doc["tool"], "lint_repo")
        self.assertEqual(doc["count"], 1)
        self.assertEqual(doc["findings"][0]["code"], "TS001")
        self.assertEqual(doc["findings"][0]["path"], "src/core/state.hpp")
        self.assertIn("TS001", doc["checks"])

    def test_github_output_mode(self):
        self.tree.write(
            "src/core/state.hpp",
            "class State {\n  std::mutex mu_;\n};\n",
        )
        code, out = run_linter(self.tree.root, "--github")
        self.assertEqual(code, 1, out)
        self.assertIn(
            "::error file=src/core/state.hpp,line=2,title=TS001::", out)

    def test_github_output_escapes_newlines_and_percent(self):
        from lint_output import Finding, github_line

        line = github_line(Finding("src/a.cpp", 1, "TS001", "50%\nbroken"))
        self.assertEqual(
            line, "::error file=src/a.cpp,line=1,title=TS001::50%25%0Abroken")


if __name__ == "__main__":
    unittest.main()

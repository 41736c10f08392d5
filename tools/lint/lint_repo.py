#!/usr/bin/env python3
"""Repo-specific invariant linter for the tacc_stats_cpp tree.

Enforces the correctness invariants no off-the-shelf tool knows about
(see docs/STATIC_ANALYSIS.md for the rationale and how to extend this):

  TS001  raw concurrency primitive (std::mutex / std::condition_variable /
         std::shared_mutex / std::atomic) declared in src/ without an entry
         in tools/lint/concurrency_allowlist.txt. New concurrent state must
         use util::Mutex + TACC_GUARDED_BY (src/util/thread_annotations.hpp)
         so Clang Thread Safety Analysis can prove the locking discipline;
         the allowlist records the sanctioned exceptions with a reason.
  TS002  util::Mutex declared but never named by any TACC_* annotation in
         the same file — an unannotated capability guards nothing, so the
         static analysis silently proves nothing about it.
  TS003  stale concurrency_allowlist.txt entry: its file is gone, or the
         file declares no std:: primitive or Mutex with that name — the
         exception outlived its code and would silently cover a new
         declaration that reuses the name.
  TS010  collector class defined in src/collect/*.hpp but never
         instantiated in src/collect/registry.cpp — the collector would
         silently never run on any node.
  TS011  fault-injection site name (a dotted "layer.event" string literal
         passed to FaultPlan::set/spec/decide in tests/ or bench/) that no
         src/ file declares — the plan entry would never fire, so the test
         exercises nothing while appearing to pass.
  TS020  tuning knob (field of tsdb::StoreOptions or
         pipeline::TsdbIngestOptions) not documented in
         docs/ARCHITECTURE.md — operators tune from the docs, so an
         undocumented knob is effectively unshipped. Also a stale
         KNOB_STRUCTS row: its header is gone or no longer declares the
         struct, so neither this check nor TS040 would look at it again.
  TS030  tests/test_*.cpp not registered in tests/CMakeLists.txt — the
         test builds nowhere and rots.
  TS040  documentation drift: a relative markdown link in README.md or
         docs/*.md that points at a file which does not exist, or a
         `Struct::field` knob reference naming a field the knob struct
         no longer has. Docs are the operator interface, so a dead link
         or a renamed-away knob is a broken control panel.
  TS050  on-disk format drift: the text of a TACC_FORMAT_BEGIN(name, v) /
         TACC_FORMAT_END(name) region no longer matches the fingerprint
         pinned in tools/lint/format_fingerprint.txt. Files already on
         disk were written by the pinned layout, so changing the region
         without bumping its version constant silently breaks readers.
         After a deliberate change + version bump, re-pin with
         `lint_repo.py --update-fingerprints`.

Exit codes: 0 = clean, 1 = violations found, 2 = usage/setup error.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_output import Finding, emit  # noqa: E402

# (code, human description) — kept in one place so --list-checks and the
# fixture tests stay in sync with reality.
CHECKS = {
    "TS001": "raw concurrency primitive not allowlisted",
    "TS002": "util::Mutex never referenced by a TACC_* annotation",
    "TS003": "concurrency allowlist entry matches no declaration",
    "TS010": "collector not registered in registry.cpp",
    "TS011": "fault site name not declared anywhere in src/",
    "TS020": "options knob undocumented, or stale KNOB_STRUCTS row",
    "TS030": "test file not registered in tests/CMakeLists.txt",
    "TS040": "doc drift: dead relative link or unresolved knob reference",
    "TS050": "on-disk format region changed without a version bump",
}

ALLOWLIST_PATH = Path("tools/lint/concurrency_allowlist.txt")
LINTER_PATH = Path("tools/lint/lint_repo.py")
FINGERPRINT_PATH = Path("tools/lint/format_fingerprint.txt")

# Declarations of raw primitives: a type token followed by an identifier
# (member or namespace-scope variable). Deliberately naive — flagging the
# odd local variable is fine, because locals the analysis cannot see should
# be rare and deliberate, i.e. allowlisted with a reason.
RAW_PRIMITIVE_RE = re.compile(
    r"\b(?:mutable\s+)?std::(?:mutex|shared_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|atomic(?:<[^;]*>|_\w+)?)\s+(\w+)\s*[;{=]"
)

MUTEX_DECL_RE = re.compile(r"\b(?:mutable\s+)?(?:util::)?Mutex\s+(\w+)\s*;")

COLLECTOR_CLASS_RE = re.compile(r"\bclass\s+(\w+Collector)\b[^;]*:")

TEST_REGISTRATION_RE = re.compile(r"\b(?:ts_test\s*\(|add_executable\s*\()\s*(\w+)")


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[Finding] = []

    def report(self, path: Path, line: int, code: str, message: str) -> None:
        self.findings.append(Finding(path.as_posix(), line, code, message))

    # -- TS001 / TS002 / TS003 ----------------------------------------------
    def load_allowlist(self) -> dict[str, int]:
        """Allowlisted "<path>:<identifier>" keys -> their line numbers."""
        allow: dict[str, int] = {}
        path = self.root / ALLOWLIST_PATH
        if not path.is_file():
            return allow
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            # "<path>:<identifier>  <reason...>" — only the first token binds.
            allow.setdefault(entry.split()[0], lineno)
        return allow

    def check_concurrency(self) -> None:
        allow = self.load_allowlist()
        declared: set[str] = set()
        annotation_exempt = Path("src/util/thread_annotations.hpp")
        for path in sorted((self.root / "src").rglob("*.[hc]pp")):
            rel = path.relative_to(self.root)
            text = path.read_text()
            for lineno, line in enumerate(text.splitlines(), 1):
                stripped = line.split("//", 1)[0]
                if rel != annotation_exempt:
                    for m in RAW_PRIMITIVE_RE.finditer(stripped):
                        key = f"{rel.as_posix()}:{m.group(1)}"
                        declared.add(key)
                        if key not in allow:
                            self.report(
                                rel, lineno, "TS001",
                                f"raw concurrency primitive '{m.group(1)}' — "
                                "use util::Mutex + TACC_GUARDED_BY, or add "
                                f"'{key}' to {ALLOWLIST_PATH.as_posix()} "
                                "with a reason",
                            )
                for m in MUTEX_DECL_RE.finditer(stripped):
                    name = m.group(1)
                    key = f"{rel.as_posix()}:{name}"
                    declared.add(key)
                    if key in allow:
                        continue
                    # The capability must be named by some annotation in this
                    # file: GUARDED_BY(name), REQUIRES(x.name), EXCLUDES(name)…
                    if not re.search(
                        r"TACC_\w+\s*\([^)]*\b" + re.escape(name) + r"\b", text
                    ):
                        self.report(
                            rel, lineno, "TS002",
                            f"util::Mutex '{name}' is never referenced by a "
                            "TACC_* annotation — nothing is guarded by it",
                        )
        for key, lineno in allow.items():
            if key in declared:
                continue
            file_part = key.rpartition(":")[0]
            what = (
                f"matches no std:: primitive or Mutex declaration in {file_part}"
                if (self.root / file_part).is_file()
                else "names a file that does not exist"
            )
            self.report(
                ALLOWLIST_PATH, lineno, "TS003",
                f"allowlist entry '{key}' {what} — delete the stale entry",
            )

    # -- TS010 --------------------------------------------------------------
    def check_collectors(self) -> None:
        collect_dir = self.root / "src" / "collect"
        registry = collect_dir / "registry.cpp"
        if not registry.is_file():
            return
        registry_text = registry.read_text()
        for path in sorted(collect_dir.glob("*.hpp")):
            rel = path.relative_to(self.root)
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                m = COLLECTOR_CLASS_RE.search(line.split("//", 1)[0])
                if m and m.group(1) not in registry_text:
                    self.report(
                        rel, lineno, "TS010",
                        f"collector '{m.group(1)}' is not registered in "
                        "src/collect/registry.cpp — it will never run",
                    )

    # -- TS011 --------------------------------------------------------------
    # A dotted "layer.event" string literal in the first-argument slot of a
    # FaultPlan call. Matches plan.set("broker.publish", …),
    # plan->decide("daemon.publish", …), plan.spec("cron.rsync"), including
    # literals wrapped in std::string(...) / std::string_view(...).
    FAULT_SITE_CALL_RE = re.compile(
        r"\b(?:set|spec|decide|uniform)\s*\(\s*"
        r'(?:std::string(?:_view)?\s*\(\s*)?"([a-z_]+(?:\.[a-z_]+)+)"'
    )
    # Canonical site declarations: the kFault* string_view constants in
    # src/util/fault.hpp.
    FAULT_SITE_DECL_RE = re.compile(r'\bkFault\w+\s*=\s*"([a-z_]+(?:\.[a-z_]+)+)"')

    def declared_fault_sites(self) -> set[str]:
        sites: set[str] = set()
        src = self.root / "src"
        if not src.is_dir():
            return sites
        for path in sorted(src.rglob("*.[hc]pp")):
            text = path.read_text()
            sites.update(self.FAULT_SITE_DECL_RE.findall(text))
            # Sites consulted inline in src/ (decide("x.y", …)) also count
            # as declared: the injection point exists.
            sites.update(self.FAULT_SITE_CALL_RE.findall(text))
        return sites

    def check_fault_sites(self) -> None:
        declared = self.declared_fault_sites()
        for subdir in ("tests", "bench"):
            base = self.root / subdir
            if not base.is_dir():
                continue
            for path in sorted(base.glob("*.cpp")):
                rel = path.relative_to(self.root)
                for lineno, line in enumerate(
                    path.read_text().splitlines(), 1
                ):
                    code = line.split("//", 1)[0]
                    for site in self.FAULT_SITE_CALL_RE.findall(code):
                        if site not in declared:
                            self.report(
                                rel, lineno, "TS011",
                                f"fault site '{site}' is not declared in "
                                "src/ (see kFault* in src/util/fault.hpp) — "
                                "this plan entry can never fire",
                            )

    # -- TS020 --------------------------------------------------------------
    KNOB_STRUCTS = (
        ("src/tsdb/store.hpp", "StoreOptions"),
        ("src/tsdb/store.hpp", "RetentionPolicy"),
        ("src/pipeline/ingest.hpp", "TsdbIngestOptions"),
        ("src/util/fault.hpp", "FaultSpec"),
        ("src/transport/daemon.hpp", "RetryPolicy"),
        ("src/transport/consumer.hpp", "ConsumerOptions"),
        ("src/transport/topology.hpp", "TreeOptions"),
        ("src/transport/aggregator.hpp", "AggregatorOptions"),
        ("src/portal/engine.hpp", "QueryEngineOptions"),
    )

    @staticmethod
    def struct_fields(text: str, struct: str) -> list[tuple[int, str]] | None:
        """Field names of `struct <name> { ... };` with their line numbers,
        or None if `text` does not declare the struct."""
        m = re.search(r"struct\s+" + struct + r"\s*\{", text)
        if not m:
            return None
        start = m.end()
        depth = 1
        end = start
        while end < len(text) and depth > 0:
            depth += {"{": 1, "}": -1}.get(text[end], 0)
            end += 1
        body = text[start:end]
        base_line = text.count("\n", 0, start) + 1
        fields = []
        for i, line in enumerate(body.splitlines()):
            code = line.split("//", 1)[0]
            fm = re.search(r"\b(\w+)\s*(?:\{[^;{}]*\}|=[^;]*)?;\s*$",
                           code.strip())
            if fm and not code.strip().startswith(("struct", "using")):
                fields.append((base_line + i, fm.group(1)))
        return fields

    def knob_structs(self):
        """(header, struct, its fields or None) for every KNOB_STRUCTS row;
        None when the header is gone or does not declare the struct."""
        for rel_path, struct in self.KNOB_STRUCTS:
            path = self.root / rel_path
            text = path.read_text() if path.is_file() else ""
            yield rel_path, struct, self.struct_fields(text, struct)

    @staticmethod
    def knob_row_line(rel_path: str, struct: str) -> int:
        """Line of a KNOB_STRUCTS row in this file (1 if not found)."""
        row = f'("{rel_path}", "{struct}")'
        lines = Path(__file__).read_text().splitlines()
        return next((n for n, line in enumerate(lines, 1) if row in line), 1)

    def check_knobs(self) -> None:
        docs = self.root / "docs" / "ARCHITECTURE.md"
        docs_text = docs.read_text() if docs.is_file() else ""
        for rel_path, struct, fields in self.knob_structs():
            if fields is None:
                what = "does not declare it" if \
                    (self.root / rel_path).is_file() else "does not exist"
                self.report(
                    LINTER_PATH, self.knob_row_line(rel_path, struct),
                    "TS020",
                    f"KNOB_STRUCTS row '{struct}': {rel_path} {what} — "
                    "point the row at the struct's header or delete it",
                )
                continue
            for lineno, field in fields:
                if field not in docs_text:
                    self.report(
                        Path(rel_path), lineno, "TS020",
                        f"knob '{struct}::{field}' is not documented in "
                        "docs/ARCHITECTURE.md",
                    )

    # -- TS040 --------------------------------------------------------------
    # Inline markdown links: [text](target). Reference-style links are not
    # used in this repo's docs.
    MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    # A qualified knob mention: Struct::field. Only structs in KNOB_STRUCTS
    # are checked; other qualified names (util::Mutex, tsdb::Store) pass.
    KNOB_REF_RE = re.compile(r"\b(\w+)::(\w+)\b")

    def doc_files(self) -> list[Path]:
        docs = []
        readme = self.root / "README.md"
        if readme.is_file():
            docs.append(readme)
        docs_dir = self.root / "docs"
        if docs_dir.is_dir():
            docs.extend(sorted(docs_dir.glob("*.md")))
        return docs

    def knob_fields(self) -> dict[str, set[str]]:
        """struct name -> its field names, for every KNOB_STRUCTS entry (none
        for a stale row, so every doc reference to it is drift)."""
        fields: dict[str, set[str]] = {}
        for _, struct, found in self.knob_structs():
            fields.setdefault(struct, set()).update(
                name for _, name in found or [])
        return fields

    def check_docs(self) -> None:
        knob_fields = self.knob_fields()
        for path in self.doc_files():
            rel = path.relative_to(self.root)
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for target in self.MD_LINK_RE.findall(line):
                    if re.match(r"[a-z][a-z0-9+.-]*:", target) or \
                            target.startswith("#"):
                        continue  # external URL or in-page anchor
                    file_part = target.split("#", 1)[0]
                    if not file_part:
                        continue
                    resolved = (path.parent / file_part).resolve()
                    if not resolved.exists():
                        self.report(
                            rel, lineno, "TS040",
                            f"relative link '{target}' does not resolve "
                            f"(no such file {file_part})",
                        )
                for m in self.KNOB_REF_RE.finditer(line):
                    struct, field = m.group(1), m.group(2)
                    if struct in knob_fields and \
                            field not in knob_fields[struct]:
                        self.report(
                            rel, lineno, "TS040",
                            f"knob reference '{struct}::{field}' names a "
                            "field the struct does not have — the doc has "
                            "drifted from the code",
                        )

    # -- TS050 --------------------------------------------------------------
    # Pinned on-disk format regions. A region is the comment/constant block
    # between TACC_FORMAT_BEGIN(name, version) and TACC_FORMAT_END(name);
    # its normalized text is hashed and pinned in FINGERPRINT_PATH as
    # "<name> <version> <sha256>". Editing the region without bumping the
    # version fails; after a deliberate bump, --update-fingerprints re-pins.
    FORMAT_BEGIN_RE = re.compile(r"TACC_FORMAT_BEGIN\(\s*(\w+)\s*,\s*(\d+)\s*\)")
    FORMAT_END_RE = re.compile(r"TACC_FORMAT_END\(\s*(\w+)\s*\)")

    def format_regions(self) -> dict[str, tuple[Path, int, int, str]]:
        """name -> (file, begin line, version, sha256 of normalized text)."""
        regions: dict[str, tuple[Path, int, int, str]] = {}
        src = self.root / "src"
        if not src.is_dir():
            return regions
        for path in sorted(src.rglob("*.[hc]pp")):
            rel = path.relative_to(self.root)
            open_name = None
            open_line = 0
            open_version = 0
            buf: list[str] = []
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                begin = self.FORMAT_BEGIN_RE.search(line)
                end = self.FORMAT_END_RE.search(line)
                if begin:
                    if open_name is not None:
                        self.report(
                            rel, lineno, "TS050",
                            f"TACC_FORMAT_BEGIN('{begin.group(1)}') opens "
                            f"inside unterminated region '{open_name}'",
                        )
                    open_name = begin.group(1)
                    open_version = int(begin.group(2))
                    open_line = lineno
                    buf = []
                elif end:
                    if end.group(1) != open_name:
                        self.report(
                            rel, lineno, "TS050",
                            f"TACC_FORMAT_END('{end.group(1)}') does not "
                            f"close an open region (open: {open_name!r})",
                        )
                        continue
                    if open_name in regions:
                        self.report(
                            rel, open_line, "TS050",
                            f"duplicate format region name '{open_name}' "
                            f"(first in {regions[open_name][0].as_posix()})",
                        )
                    normalized = "\n".join(
                        s for s in (" ".join(l.split()) for l in buf) if s
                    )
                    digest = hashlib.sha256(normalized.encode()).hexdigest()
                    regions[open_name] = (rel, open_line, open_version, digest)
                    open_name = None
                elif open_name is not None:
                    buf.append(line)
            if open_name is not None:
                self.report(
                    rel, open_line, "TS050",
                    f"format region '{open_name}' has no "
                    f"TACC_FORMAT_END({open_name})",
                )
        return regions

    def load_fingerprints(self) -> dict[str, tuple[int, str]]:
        pinned: dict[str, tuple[int, str]] = {}
        path = self.root / FINGERPRINT_PATH
        if not path.is_file():
            return pinned
        for raw in path.read_text().splitlines():
            entry = raw.split("#", 1)[0].split()
            if len(entry) == 3 and entry[1].isdigit():
                pinned[entry[0]] = (int(entry[1]), entry[2])
        return pinned

    def check_formats(self) -> None:
        regions = self.format_regions()
        pinned = self.load_fingerprints()
        fp = FINGERPRINT_PATH.as_posix()
        for name, (rel, line, version, digest) in sorted(regions.items()):
            if name not in pinned:
                self.report(
                    rel, line, "TS050",
                    f"format region '{name}' has no pinned fingerprint in "
                    f"{fp} — run lint_repo.py --update-fingerprints",
                )
            elif version == pinned[name][0] and digest != pinned[name][1]:
                self.report(
                    rel, line, "TS050",
                    f"format region '{name}' changed without a version bump "
                    f"(still v{version}) — files already written with the "
                    "pinned layout would be misread; bump the version in "
                    "TACC_FORMAT_BEGIN and run --update-fingerprints",
                )
            elif version != pinned[name][0]:
                self.report(
                    rel, line, "TS050",
                    f"format region '{name}' is v{version} but {fp} pins "
                    f"v{pinned[name][0]} — after a deliberate bump, re-pin "
                    "with lint_repo.py --update-fingerprints",
                )
        for name in sorted(set(pinned) - set(regions)):
            self.report(
                FINGERPRINT_PATH, 1, "TS050",
                f"fingerprint pins format region '{name}' that no longer "
                "exists in src/ — run lint_repo.py --update-fingerprints",
            )

    def update_fingerprints(self) -> int:
        """Re-pin every region; returns 1 if regions are malformed."""
        regions = self.format_regions()
        if self.findings:
            return 1
        path = self.root / FINGERPRINT_PATH
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            "# Pinned on-disk format fingerprints (lint_repo.py rule TS050).",
            "# \"<name> <version> <sha256-of-normalized-region-text>\" per",
            "# line. Regenerate with: tools/lint/lint_repo.py "
            "--update-fingerprints",
        ]
        for name, (_, _, version, digest) in sorted(regions.items()):
            lines.append(f"{name} {version} {digest}")
        path.write_text("\n".join(lines) + "\n")
        print(f"lint_repo: pinned {len(regions)} format region(s) in "
              f"{FINGERPRINT_PATH.as_posix()}")
        return 0

    # -- TS030 --------------------------------------------------------------
    def check_tests(self) -> None:
        tests_dir = self.root / "tests"
        cmake = tests_dir / "CMakeLists.txt"
        if not cmake.is_file():
            return
        registered = set(TEST_REGISTRATION_RE.findall(cmake.read_text()))
        for path in sorted(tests_dir.glob("test_*.cpp")):
            if path.stem not in registered:
                self.report(
                    path.relative_to(self.root), 1, "TS030",
                    f"'{path.name}' is not registered in "
                    "tests/CMakeLists.txt — it never builds or runs",
                )

    def run(self) -> list[Finding]:
        self.check_concurrency()
        self.check_collectors()
        self.check_fault_sites()
        self.check_knobs()
        self.check_formats()
        self.check_tests()
        self.check_docs()
        return self.findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[2],
        help="repository root to lint (default: this script's repo)",
    )
    parser.add_argument(
        "--list-checks", action="store_true", help="print check codes and exit"
    )
    parser.add_argument(
        "--update-fingerprints", action="store_true",
        help="re-pin every TACC_FORMAT_* region hash in "
             "tools/lint/format_fingerprint.txt and exit",
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_true",
        help="emit findings as a machine-readable JSON document",
    )
    fmt.add_argument(
        "--github", action="store_true",
        help="emit findings as ::error workflow commands (inline PR "
             "annotations on GitHub Actions)",
    )
    args = parser.parse_args(argv)
    if args.list_checks:
        for code, desc in CHECKS.items():
            print(f"{code}  {desc}")
        return 0
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"lint_repo: {root} has no src/ directory", file=sys.stderr)
        return 2
    if args.update_fingerprints:
        linter = Linter(root)
        code = linter.update_fingerprints()
        return code if not linter.findings else emit(
            linter.findings, tool="lint_repo", checks=CHECKS, fmt="plain"
        )
    findings = Linter(root).run()
    return emit(
        findings, tool="lint_repo", checks=CHECKS,
        fmt="json" if args.json else "github" if args.github else "plain",
    )


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Doc-lint: keep the top-level docs anchored to the code they describe.

Four checks, all fatal:
  - coverage: every subsystem directory under src/ is mentioned in
    DESIGN.md (as `src/<dir>`), so a new subsystem cannot land without
    design documentation;
  - existence: every `scripts/...` path and every `tools/...` /
    `bench/...` reference (bare or as a `build*/` binary) in a tracked
    markdown file maps to a real file in the repo: scripts/<name>, a
    tracked tools/<stem> or bench/<stem>, or <stem>.cpp there (with `-`
    spelled `_`). These apply to REFERENCE_DOCS and to every doc below
    the top level; other top-level docs are logs, plans and paper context
    that name deleted, future or foreign files by design;
  - source paths: every `src/...` path in REFERENCE_DOCS, brace forms
    like `src/workloads/foo.{hpp,cpp}` and `.*` globs included, resolves
    to a tracked file, a directory of tracked files, or a tracked file's
    stem (`src/analysis/dependence`). Docs below the top level are not
    checked for these;
  - links: every relative markdown link target in a tracked *.md file
    resolves to an existing file or directory (http(s), mailto and
    pure-#anchor links are skipped).

Usage: check_docs.py [REPO_ROOT]
Exit: 0 clean, 1 findings, 2 usage errors.
"""

import os
import re
import subprocess
import sys

# Directories under src/ that are organizational only and need no
# DESIGN.md section of their own. Keep this list empty unless a dir
# truly has no design surface.
COVERAGE_EXEMPT = set()

# Top-level docs that describe the current tree. The existence checks
# apply to these and to every doc below the top level (tool and benchmark
# notes); the other top-level docs (change log, plans, paper context) name
# deleted, future or foreign files by design, so only links are checked.
REFERENCE_DOCS = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SCRIPT_RE = re.compile(r"\bscripts/([A-Za-z0-9_.-]+)")
# A `tools/` or `bench/` path, under a `build*/` tree (./build/tools/...)
# or bare. A bare path nested in another directory (perfbench/..., another
# repo's bench/...) is not ours and is skipped.
BINARY_RE = re.compile(
    r"(?:(?<![\w-])(build[-a-z]*/)|(?<![\w./-]))(tools|bench)/([A-Za-z0-9_.-]+)")
# A `src/` path: segments of path characters and `{a,b}` brace groups.
SRC_RE = re.compile(r"(?<![\w./-])src/(?:[A-Za-z0-9_.*/-]|\{[A-Za-z0-9_.,-]*\})+")
BRACE_RE = re.compile(r"\{([^{}]*)\}")


def tracked_files(root, *patterns):
    out = subprocess.run(
        ["git", "-C", root, "ls-files", *patterns],
        check=True, capture_output=True, text=True,
    ).stdout
    return [line for line in out.splitlines() if line]


def check_coverage(root, findings):
    design = open(os.path.join(root, "DESIGN.md"), encoding="utf-8").read()
    src = os.path.join(root, "src")
    for entry in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, entry)):
            continue
        if entry in COVERAGE_EXEMPT:
            continue
        if "src/" + entry not in design:
            findings.append(
                f"DESIGN.md: no mention of src/{entry} — document the "
                f"subsystem (inventory row + section) or exempt it in "
                f"scripts/check_docs.py"
            )


def check_file(root, md, tracked, findings):
    text = open(os.path.join(root, md), encoding="utf-8").read()
    md_dir = os.path.dirname(os.path.join(root, md))

    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = os.path.normpath(os.path.join(md_dir, path))
        if not os.path.exists(resolved):
            findings.append(f"{md}: dead relative link -> {target}")

    if "/" not in md and md not in REFERENCE_DOCS:
        return

    for name in SCRIPT_RE.findall(text):
        if not os.path.exists(os.path.join(root, "scripts", name)):
            findings.append(f"{md}: references missing scripts/{name}")

    for build, srcdir, stem in BINARY_RE.findall(text):
        stem = stem.rstrip(".")
        candidates = [stem, stem + ".cpp", stem.replace("-", "_") + ".cpp"]
        if not any(f"{srcdir}/{c}" in tracked for c in candidates):
            findings.append(
                f"{md}: references {build}{srcdir}/{stem} but no tracked "
                f"{srcdir}/ file matches it"
            )


def expand_braces(path):
    m = BRACE_RE.search(path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(path[:m.start()] + alt + path[m.end():])
    return out


def src_path_exists(path, tracked_src):
    path = path.rstrip("/")
    if path.endswith(".*"):
        path = path[:-2]
    for f in tracked_src:
        if f == path or f.startswith(path + "/") or os.path.splitext(f)[0] == path:
            return True
    return False


def check_src_paths(root, md, tracked_src, findings):
    text = open(os.path.join(root, md), encoding="utf-8").read()
    for token in sorted(set(SRC_RE.findall(text))):
        for path in expand_braces(token.rstrip(".")):
            if not src_path_exists(path, tracked_src):
                findings.append(
                    f"{md}: references {path} but no tracked src/ file, "
                    f"directory or file stem matches it"
                )


def main(argv):
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.abspath(argv[1] if len(argv) == 2 else ".")
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"check_docs: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    findings = []
    check_coverage(root, findings)
    docs = tracked_files(root, "*.md")
    tracked = set(tracked_files(root, "tools", "bench"))
    for md in docs:
        check_file(root, md, tracked, findings)
    tracked_src = tracked_files(root, "src")
    for md in sorted(REFERENCE_DOCS):
        check_src_paths(root, md, tracked_src, findings)

    if findings:
        for f in findings:
            print(f"check_docs: {f}", file=sys.stderr)
        print(f"check_docs: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"check_docs: ok ({len(docs)} markdown files, "
          f"docs anchored to src/)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

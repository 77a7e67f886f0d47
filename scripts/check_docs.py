#!/usr/bin/env python3
"""Markdown link-and-anchor checker for the repo docs.

Walks every *.md at the repo root and under docs/, and verifies:

  * relative links point at files that exist (`[x](docs/INGEST.md)`,
    `[y](../DESIGN.md#anchor)`), resolved from the linking file's dir;
  * fragment links (`#heading`) — standalone or on a relative link —
    name a real heading, using GitHub's slug rules (lowercase, spaces
    to '-', punctuation dropped, duplicate slugs suffixed -1, -2, ...);
  * inline file references in backticks that look like repo paths
    (`docs/FOO.md`, `src/core/kiwi_map.h`, `scripts/x.py`) exist —
    this is what catches doc drift when a file is renamed;
  * code names in backticks in README.md, DESIGN.md, EXPERIMENTS.md and
    docs/*.md still occur somewhere in the code (src, bench, examples,
    tests, perfbench, scripts, .github, CMakeLists.txt) — this catches
    doc drift when a function, type or constant is renamed or deleted.
    A name counts when it is `Scope::Name`, `Name()`, CamelCase with an
    inner capital, a `kConstant` or a `KIWI_` macro; every identifier in
    it must occur as a whole word.  The other root notes (change log,
    roadmap, paper notes) name deleted code on purpose.

http(s)/mailto links are skipped (no network in CI).  Pure standard
library.  Exit 0 = clean, 1 = problems (each printed as file:line).

    python3 scripts/check_docs.py [--root .]
"""
import argparse
import os
import re
import sys

# [text](target) — excludes images' leading '!' capture since the target
# rules are identical anyway.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
# `path/to/file.ext` in backticks: at least one '/', a known source-ish
# extension, and no shell-y characters that mark it as a command.
BACKTICK_PATH_RE = re.compile(
    r"`([A-Za-z0-9_./-]+/[A-Za-z0-9_.-]+\."
    r"(?:md|h|cpp|c|py|yml|yaml|json|txt|cmake|sh))`")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

# Paths referenced with globs/placeholders or generated at runtime.
GENERATED_HINTS = ("*", "<", "$", "build/", "BENCH_ci.json",
                   "bench_output.txt", "kiwi_trace.json")

# Inline code spans, and the (optionally scoped, optionally called) names
# inside them; a name right after a '*' is the tail of a glob pattern.
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
NAME_EXPR_RE = re.compile(
    r"(?<![\w*])((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)(\()?")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# Upper-case initial and a capital after a lower-case letter.
CAMEL_RE = re.compile(r"[A-Z]\w*[a-z]\w*[A-Z]\w*")
KCONST_RE = re.compile(r"k[A-Z]\w*")
MACRO_RE = re.compile(r"KIWI_\w+")

# Where a documented code name must still occur, relative to the root.
CODE_DIRS = ("src", "bench", "examples", "tests", "perfbench", "scripts",
             ".github")
CODE_FILES = ("CMakeLists.txt",)
# Root markdown whose code names are checked (plus all of docs/).
NAME_CHECKED_ROOT = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
# Names from the paper's pseudocode with no code spelling of their own.
PAPER_ONLY_NAMES = {"kCounter"}


def github_slug(text, taken):
    """GitHub heading-anchor slug: strip formatting, lowercase,
    spaces -> '-', drop everything but word chars and hyphens,
    dedup with -1/-2 suffixes."""
    text = re.sub(r"`([^`]*)`", r"\1", text)          # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[*_~]", "", text)                 # emphasis markers
    slug = text.strip().lower().replace(" ", "-")
    slug = re.sub(r"[^\wÀ-￿-]", "", slug)
    base = slug
    n = 0
    while slug in taken:
        n += 1
        slug = f"{base}-{n}"
    taken.add(slug)
    return slug


def headings_of(path, cache):
    if path not in cache:
        slugs = set()
        taken = set()
        in_fence = False
        try:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    if CODE_FENCE_RE.match(line):
                        in_fence = not in_fence
                        continue
                    if in_fence:
                        continue
                    m = HEADING_RE.match(line)
                    if m:
                        slugs.add(github_slug(m.group(2), taken))
        except OSError:
            pass
        cache[path] = slugs
    return cache[path]


def code_identifiers(root):
    """Every identifier-shaped word in the code tree (comments and strings
    included; not this checker's own source), plus the paper-only names."""
    idents = set()
    this_file = os.path.abspath(__file__)
    paths = [os.path.join(root, f) for f in CODE_FILES]
    for top in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames
                           if d != "__pycache__" and not d.startswith("build")]
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for path in paths:
        if os.path.abspath(path) == this_file or not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8", errors="ignore") as f:
            idents.update(IDENT_RE.findall(f.read()))
    return idents | PAPER_ONLY_NAMES


def is_code_name(expr, called):
    """Scope::Name, Name(), CamelCase with an inner capital, kConstant or a
    KIWI_ macro."""
    if called or "::" in expr:
        return True
    return bool(CAMEL_RE.fullmatch(expr) or KCONST_RE.fullmatch(expr)
                or MACRO_RE.fullmatch(expr))


def stale_names(line, idents):
    """Code names in `line`'s backtick spans with an identifier the code no
    longer has, as written (a call keeps its "()")."""
    stale = []
    for span in CODE_SPAN_RE.findall(line):
        for m in NAME_EXPR_RE.finditer(span):
            expr, called = m.group(1), m.group(2) is not None
            if not is_code_name(expr, called):
                continue
            if any(part not in idents for part in expr.split("::")):
                stale.append(expr + ("()" if called else ""))
    return stale


def check_file(md_path, root, heading_cache, idents=None):
    problems = []
    md_dir = os.path.dirname(md_path)
    in_fence = False
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if CODE_FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue

            for target in LINK_RE.findall(line):
                if target.startswith(SKIP_SCHEMES):
                    continue
                path_part, _, fragment = target.partition("#")
                if path_part:
                    resolved = os.path.normpath(
                        os.path.join(md_dir, path_part))
                    if not os.path.exists(resolved):
                        problems.append(
                            (lineno, f"broken link: {target}"))
                        continue
                    anchor_file = resolved
                else:
                    anchor_file = md_path  # '#fragment' in same file
                if fragment and anchor_file.endswith(".md"):
                    if fragment.lower() not in headings_of(
                            anchor_file, heading_cache):
                        problems.append(
                            (lineno, f"broken anchor: {target}"))

            for ref in BACKTICK_PATH_RE.findall(line):
                if any(hint in ref for hint in GENERATED_HINTS):
                    continue
                # Resolve repo-root-relative first (the common doc
                # idiom), then relative to the file.
                if not (os.path.exists(os.path.join(root, ref))
                        or os.path.exists(os.path.join(md_dir, ref))):
                    problems.append(
                        (lineno, f"referenced file missing: {ref}"))

            if idents is not None:
                for name in stale_names(line, idents):
                    problems.append(
                        (lineno, f"code name not found in the code: {name}"))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    md_files = []
    for entry in sorted(os.listdir(root)):
        if entry.endswith(".md"):
            md_files.append(os.path.join(root, entry))
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for entry in sorted(os.listdir(docs_dir)):
            if entry.endswith(".md"):
                md_files.append(os.path.join(docs_dir, entry))

    heading_cache = {}
    idents = code_identifiers(root)
    failed = False
    for md in md_files:
        rel = os.path.relpath(md, root)
        check_names = (rel in NAME_CHECKED_ROOT
                       or os.path.dirname(md) == docs_dir)
        problems = check_file(md, root, heading_cache,
                              idents if check_names else None)
        for lineno, message in problems:
            print(f"{rel}:{lineno}: {message}")
            failed = True
    checked = len(md_files)
    if failed:
        print(f"check_docs: problems found across {checked} files")
        return 1
    print(f"check_docs: {checked} markdown files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

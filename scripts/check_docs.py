#!/usr/bin/env python3
"""Docs presence + link check, run by CI and usable locally.

Verifies that the entry-point docs exist (README.md, ARCHITECTURE.md) and
that every *relative* markdown link in the repo's tracked .md files resolves
to a real file or directory. External links (http/https/mailto) and
intra-page anchors are ignored; an anchor suffix on a relative link
(FILE.md#section) is checked for the file part only.

It also checks ARCHITECTURE.md's layer map: in a `## <layer>` section with a
src/<layer>/ directory, every bullet of the form `* **file**` must name
files that exist there. `insn.{h,cc}` names two files, a bullet may list
several names split by `,` or `/`, and a `*` is a glob, as in the
`map*.cc` bullet.

Usage: scripts/check_docs.py [REPO_ROOT]
Exit status: non-zero on any missing doc or dangling link.
"""
import glob
import os
import re
import sys

REQUIRED = ["README.md", "ARCHITECTURE.md", "ROADMAP.md", "bench/README.md"]

# Retrieved reference material (paper scrape, related-work dump) — not ours;
# may carry links into assets that were never part of this repo.
SKIP = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}

# [text](target) — excluding images' optional titles and external schemes.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:", "#")


def md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "build", ".claude")]
        for f in filenames:
            if f.endswith(".md") and f not in SKIP:
                yield os.path.join(dirpath, f)


# `* **names** ...` bullets of ARCHITECTURE.md.
BULLET_RE = re.compile(r"^\* \*\*(.+?)\*\*")
# A `,` or `/` outside braces separates two names.
SPLIT_RE = re.compile(r"[,/](?![^{]*\})")


def bullet_names(text):
    """The file names (or globs) a bullet's bold text lists."""
    names = []
    for part in SPLIT_RE.split(text):
        part = part.strip().replace("\\*", "*")
        m = re.fullmatch(r"(.*)\{(.*)\}(.*)", part)
        if m:
            names += [m.group(1) + ext + m.group(3)
                      for ext in m.group(2).split(",")]
        elif "." in part:
            names.append(part)
    return names


def check_layer_map(root):
    """Failures for ARCHITECTURE.md bullets naming missing src/ files."""
    failures, checked = [], 0
    src = os.path.join(root, "src")
    layer = None
    with open(os.path.join(root, "ARCHITECTURE.md"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("## "):
                words = line[3:].split()
                layer = words[0] if words else None
                if layer and not os.path.isdir(os.path.join(src, layer)):
                    layer = None
                continue
            m = BULLET_RE.match(line)
            if layer is None or m is None:
                continue
            for name in bullet_names(m.group(1)):
                checked += 1
                if not glob.glob(os.path.join(src, layer, name)):
                    failures.append(f"FAIL: ARCHITECTURE.md: '## {layer}' "
                                    f"names src/{layer}/{name}, which does "
                                    f"not exist")
    return failures, checked


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                           else os.path.join(os.path.dirname(__file__), ".."))
    rc = 0
    for req in REQUIRED:
        if not os.path.isfile(os.path.join(root, req)):
            print(f"FAIL: required doc missing: {req}")
            rc = 1
        else:
            print(f"ok:   {req} present")

    checked = 0
    for md in md_files(root):
        base = os.path.dirname(md)
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(EXTERNAL):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            checked += 1
            if not os.path.exists(resolved):
                print(f"FAIL: {os.path.relpath(md, root)}: dangling link "
                      f"'{target}' -> {os.path.relpath(resolved, root)}")
                rc = 1
    print(f"ok:   {checked} relative links resolve" if rc == 0
          else f"{checked} relative links checked")

    if os.path.isfile(os.path.join(root, "ARCHITECTURE.md")):
        failures, named = check_layer_map(root)
        for line in failures:
            print(line)
        if failures:
            rc = 1
        else:
            print(f"ok:   {named} layer-map files exist under src/")
    return rc


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Documentation linter: intra-repo links, anchors, and doctests.

Checks, over ``README.md`` and every markdown file under ``docs/``:

* every relative markdown link resolves to a real file or directory
  (external ``http(s)``/``mailto`` links are not fetched);
* every fragment (``file.md#section``) matches a heading anchor in the
  target file, using GitHub's slug rules (lowercase, punctuation
  stripped, spaces → dashes);
* fenced ``>>>`` examples in ``docs/using_the_library.md`` and
  ``docs/share_tree.md`` pass under :mod:`doctest` (run with
  ``PYTHONPATH=src``);
* every event kind emitted under ``src/repro/alps/`` or
  ``src/repro/hostos/`` (a string literal passed to an ``emit`` or
  ``_emit`` call) has a row in the "Event kinds" table of
  ``docs/observability.md``.

Exit status is non-zero on any failure, so CI can gate on it:

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import doctest
import re
import sys
from fnmatch import fnmatch
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Files swept for links: the top-level README plus all of docs/.
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

#: Markdown files whose ``>>>`` examples must pass under doctest.
DOCTEST_FILES = [
    REPO / "docs" / "using_the_library.md",
    REPO / "docs" / "share_tree.md",
]

#: Packages whose emitted event kinds must be documented, and where.
EVENT_SOURCES = [REPO / "src" / "repro" / "alps", REPO / "src" / "repro" / "hostos"]
EVENT_TABLE = REPO / "docs" / "observability.md"

# Inline markdown links: [text](target). Images share the syntax.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")


def _strip_code_blocks(text: str) -> str:
    """Drop fenced code blocks so example links aren't linted."""
    return re.sub(r"```.*?```", "", text, flags=re.S)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading."""
    # Inline code/emphasis markers render to nothing in the anchor.
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for m in _HEADING_RE.finditer(_strip_code_blocks(path.read_text())):
        slug = github_slug(m.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links() -> list[str]:
    errors: list[str] = []
    for doc in DOC_FILES:
        text = _strip_code_blocks(doc.read_text())
        for m in _LINK_RE.finditer(text):
            target = m.group(1)
            if target.startswith(_EXTERNAL):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{doc.relative_to(REPO)}: broken link {target!r}"
                    )
                    continue
            else:
                resolved = doc
            if fragment:
                if resolved.is_dir() or resolved.suffix.lower() != ".md":
                    continue  # anchors only checked in markdown
                if fragment not in anchors_of(resolved):
                    errors.append(
                        f"{doc.relative_to(REPO)}: link {target!r} names a "
                        f"missing anchor #{fragment}"
                    )
    return errors


def check_doctests() -> list[str]:
    errors: list[str] = []
    for doc in DOCTEST_FILES:
        failures, attempted = doctest.testfile(
            str(doc), module_relative=False, verbose=False
        )
        if attempted == 0:
            errors.append(f"{doc.relative_to(REPO)}: no doctest examples found")
        elif failures:
            errors.append(
                f"{doc.relative_to(REPO)}: {failures}/{attempted} "
                "doctest examples failed (run `python -m doctest` on it)"
            )
    return errors


_KIND_RE = re.compile(r"[a-z_]+(\.[a-z_]+)+")


def emitted_kinds(path: Path) -> set[str]:
    """Event-kind literals passed to ``emit``/``_emit`` calls in ``path``."""
    kinds: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name not in ("emit", "_emit"):
            continue
        for arg in node.args:
            for const in ast.walk(arg):  # reaches both arms of an `a if c else b`
                if (
                    isinstance(const, ast.Constant)
                    and isinstance(const.value, str)
                    and _KIND_RE.fullmatch(const.value)
                ):
                    kinds.add(const.value)
    return kinds


def documented_kinds() -> list[str]:
    """Kind patterns in the first column of the "Event kinds" table."""
    section = EVENT_TABLE.read_text().split("### Event kinds", 1)[1]
    section = section.split("\n#", 1)[0]
    patterns: list[str] = []
    for first_cell in re.findall(r"^\|([^|]*)\|", section, re.M):
        patterns.extend(re.findall(r"`([^`]+)`", first_cell))
    return patterns


def check_event_kinds() -> list[str]:
    documented = documented_kinds()
    errors: list[str] = []
    for package in EVENT_SOURCES:
        for path in sorted(package.rglob("*.py")):
            for kind in sorted(emitted_kinds(path)):
                if not any(fnmatch(kind, pattern) for pattern in documented):
                    errors.append(
                        f"{path.relative_to(REPO)}: event kind {kind!r} has no "
                        f"row in {EVENT_TABLE.relative_to(REPO)} (Event kinds)"
                    )
    return errors


def main() -> int:
    missing = [str(p) for p in DOC_FILES + DOCTEST_FILES if not p.exists()]
    if missing:
        print("missing documentation files:", *missing, sep="\n  ")
        return 1
    errors = check_links() + check_doctests() + check_event_kinds()
    for err in errors:
        print(f"ERROR: {err}")
    n_links = sum(
        1 for doc in DOC_FILES
        for _ in _LINK_RE.finditer(_strip_code_blocks(doc.read_text()))
    )
    print(
        f"checked {len(DOC_FILES)} files, {n_links} links, "
        f"{len(DOCTEST_FILES)} doctest files: "
        + ("FAIL" if errors else "ok")
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

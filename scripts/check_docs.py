#!/usr/bin/env python3
"""Docs hygiene check, run by scripts/ci.sh.

1. Link check: every relative markdown link in README.md, DESIGN.md, and
   docs/*.md must point at a file that exists; a `#fragment` on a markdown
   target must match a heading anchor in that file (GitHub slug rules,
   approximated).
2. Metrics drift: every `alloy_*` family declared in src/obs/metrics.cc
   must be documented in docs/metrics.md, and vice versa (label names the
   doc mentions are exempt).
3. Env-knob drift: every "ALLOY_*" string literal under src/ must have a
   row in docs/operations.md, and every `ALLOY_*` row there must name a
   knob some source under src/ reads.

Exits non-zero with one line per problem.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, drop punctuation, dash spaces."""
    text = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    return {slugify(h) for h in HEADING_RE.findall(path.read_text())}


def check_links() -> list:
    problems = []
    for doc in DOC_FILES:
        for target in LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            dest = (
                doc if not path_part else (doc.parent / path_part).resolve()
            )
            rel = doc.relative_to(ROOT)
            if not dest.exists():
                problems.append(f"{rel}: broken link -> {target}")
                continue
            if fragment and dest.suffix == ".md":
                if fragment not in anchors_of(dest):
                    problems.append(
                        f"{rel}: missing anchor -> {target}"
                    )
    return problems


def check_metrics_drift() -> list:
    code = (ROOT / "src/obs/metrics.cc").read_text()
    doc = (ROOT / "docs/metrics.md").read_text()
    declared = set(re.findall(r'"(alloy_[a-z_]+)"', code))
    documented = set(re.findall(r"`(alloy_[a-z_]+)`", doc))
    # Label names and derived series the doc legitimately mentions.
    exempt = {"alloy_visor_shard"}
    problems = []
    for family in sorted(declared - documented):
        problems.append(
            f"docs/metrics.md: {family} declared in src/obs/metrics.cc "
            "but not documented"
        )
    for family in sorted(documented - declared - exempt):
        problems.append(
            f"docs/metrics.md: {family} documented but not declared in "
            "src/obs/metrics.cc"
        )
    return problems


def check_env_knob_drift() -> list:
    knob = re.compile(r'"(ALLOY_[A-Z0-9_]+)"')
    read = set()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cc", ".h"):
            read |= set(knob.findall(path.read_text()))
    doc = (ROOT / "docs/operations.md").read_text()
    rows = set(re.findall(r"^\|\s*`(ALLOY_[A-Z0-9_]+)`", doc, re.MULTILINE))
    problems = []
    for name in sorted(read - rows):
        problems.append(
            f"docs/operations.md: {name} is read under src/ but has no row"
        )
    for name in sorted(rows - read):
        problems.append(
            f"docs/operations.md: {name} has a row but nothing under src/ "
            "reads it"
        )
    return problems


def main() -> int:
    problems = check_links() + check_metrics_drift() + check_env_knob_drift()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(DOC_FILES)} files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

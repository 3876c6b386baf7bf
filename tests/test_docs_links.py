"""Internal-link integrity for the repo's markdown docs.

Every relative markdown link in README.md and docs/ must point at a file (or
directory) that exists, and every intra-document anchor must match a heading
— a renamed module or section breaks the build, not the reader.  Every
``*.md`` file the code in ``src/`` and ``benchmarks/`` cites (by its path
from the repository root) must exist too.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

#: ``[text](target)`` — good enough for the plain markdown used here.
_LINK_PATTERN = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: A markdown file name cited in code, e.g. ``docs/RESULTS.md``.
_CITED_DOC_PATTERN = re.compile(r"[\w./-]*\w\.md\b")
CODE_FILES = sorted(
    path
    for directory in ("src", "benchmarks")
    for path in (REPO_ROOT / directory).rglob("*.py")
)


def _slugify(heading: str) -> str:
    """GitHub's anchor scheme: lowercase, spaces to dashes, drop punctuation."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _heading_slugs(markdown: str) -> set:
    return {
        _slugify(match.group(1))
        for match in re.finditer(r"^#+\s+(.*)$", markdown, flags=re.MULTILINE)
    }


def test_docs_exist():
    """The architecture and results docs are acceptance criteria; fail loudly."""
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
    assert (REPO_ROOT / "docs" / "RESULTS.md").exists()
    assert len(DOCUMENTS) >= 3


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=[str(path.relative_to(REPO_ROOT)) for path in DOCUMENTS]
)
def test_internal_links_resolve(document):
    markdown = document.read_text(encoding="utf8")
    broken = []
    for match in _LINK_PATTERN.finditer(markdown):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (document.parent / path_part).resolve()
            if not resolved.exists():
                broken.append(f"{target} (no such file: {resolved})")
                continue
            if anchor:
                if resolved.suffix == ".md" and anchor not in _heading_slugs(
                    resolved.read_text(encoding="utf8")
                ):
                    broken.append(f"{target} (no heading for anchor #{anchor})")
        elif anchor and anchor not in _heading_slugs(markdown):
            broken.append(f"{target} (no heading for anchor #{anchor})")
    assert not broken, (
        f"{document.relative_to(REPO_ROOT)} has broken internal links: {broken}"
    )


def test_docs_cited_in_code_exist():
    missing = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {name}"
        for path in CODE_FILES
        for number, line in enumerate(path.read_text(encoding="utf8").splitlines(), 1)
        for name in _CITED_DOC_PATTERN.findall(line)
        if not (REPO_ROOT / name).exists()
    ]
    assert not missing, f"code cites markdown files that do not exist: {missing}"

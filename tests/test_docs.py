"""Documentation integrity: internal Markdown links must resolve.

Scans README.md and docs/*.md for relative links (and heading anchors)
and asserts the targets exist, so a renamed file or section breaks the
build instead of the docs.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)


def github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor slug (lowercase, drop punctuation)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(path: Path) -> set:
    return {github_anchor(h) for h in _HEADING.findall(path.read_text())}


def internal_links():
    for doc in DOC_FILES:
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            yield pytest.param(doc, target,
                               id=f"{doc.relative_to(REPO_ROOT)}:{target}")


@pytest.mark.parametrize("doc, target", internal_links())
def test_internal_link_resolves(doc, target):
    path_part, _, anchor = target.partition("#")
    resolved = (doc.parent / path_part).resolve() if path_part else doc
    assert resolved.exists(), f"{doc.name} links to missing file {path_part}"
    if anchor:
        assert resolved.suffix == ".md", \
            f"anchor link into non-markdown file {path_part}"
        assert anchor in anchors_of(resolved), \
            f"{doc.name} links to missing anchor #{anchor} in {resolved.name}"


def test_docs_tree_is_complete():
    names = {path.name for path in DOC_FILES}
    assert {"README.md", "architecture.md", "file-formats.md",
            "cli.md"} <= names


def test_package_version_matches_pyproject():
    import tomllib

    import repro

    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert repro.__version__ == project["version"]

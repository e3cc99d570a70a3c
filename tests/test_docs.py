"""Every Markdown document the code cites must exist in the repository."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITATION = re.compile(r"[\w/.-]*\w\.md\b")


def _citations() -> list[tuple[str, str]]:
    """(citing file, cited name) for every ``*.md`` named under src/ and benchmarks/."""
    found = []
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for name in sorted(set(CITATION.findall(path.read_text(encoding="utf-8")))):
                found.append((str(path.relative_to(ROOT)), name))
    return found


def test_cited_markdown_documents_exist():
    citations = _citations()
    assert any(name == "EXPERIMENTS.md" for _, name in citations)
    missing = [
        f"{source} cites {name}"
        for source, name in citations
        if not (ROOT / name).is_file()
    ]
    assert not missing, "dangling document citations:\n" + "\n".join(missing)

"""Finding reporters: one-line human output and stable JSON.

Both render from the same sorted finding list, so the two formats always
agree; the JSON shape is versioned and key-sorted so tools (and the CLI
smoke tests) can rely on byte-stable output for a given tree.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.analysis.core import Finding

__all__ = ["render_human", "render_json", "JSON_VERSION"]

#: Bumped whenever the JSON schema changes shape.
JSON_VERSION = 1


def render_human(findings: Sequence[Finding],
                 show_suppressed: bool = False) -> str:
    """Compiler-style ``path:line: RULE severity: message`` lines + summary."""
    lines: List[str] = [f.render() for f in findings
                        if show_suppressed or not f.suppressed]
    active = sum(1 for f in findings if not f.suppressed)
    suppressed = len(findings) - active
    if active == 0:
        summary = "migralint: clean"
    else:
        summary = f"migralint: {active} finding{'s' if active != 1 else ''}"
    if suppressed:
        summary += f" ({suppressed} suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document (sorted keys, suppressed findings included)."""
    doc = {
        "version": JSON_VERSION,
        "findings": [
            {
                "rule": f.rule,
                "severity": f.severity.value,
                "path": f.path,
                "line": f.line,
                "message": f.message,
                "suppressed": f.suppressed,
            }
            for f in findings
        ],
        "summary": {
            "total": len(findings),
            "active": sum(1 for f in findings if not f.suppressed),
            "suppressed": sum(1 for f in findings if f.suppressed),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)

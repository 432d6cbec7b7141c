#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings.

Walks every public subpackage of :mod:`repro`, collects the classes and
functions named in each module's ``__all__``, and renders their signatures
and first docstring paragraphs as a flat markdown reference.  Regenerate
with::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys

OUT = os.path.join(os.path.dirname(__file__), "..", "docs", "api.md")

PACKAGES = [
    "repro.kernel", "repro.vm", "repro.sim", "repro.core", "repro.flows",
    "repro.charm", "repro.ampi", "repro.balance", "repro.bigsim",
    "repro.pose", "repro.workloads", "repro.bench", "repro.analysis",
    "repro.analysis.flow", "repro.chaos", "repro.exec", "repro.obs",
    "repro.query", "repro.serve",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n")[0].replace("\n", " ").strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        # Only document things defined under repro (not re-exported numpy).
        mod = getattr(obj, "__module__", "") or ""
        if not mod.startswith("repro"):
            continue
        yield name, obj


def render_member(name: str, obj) -> list[str]:
    lines = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(first_paragraph(obj) + "\n")
        methods = []
        for mname, meth in inspect.getmembers(obj):
            if mname.startswith("_") or not callable(meth):
                continue
            if getattr(meth, "__qualname__", "").split(".")[0] != obj.__name__:
                continue
            methods.append((mname, meth))
        for mname, meth in methods:
            para = first_paragraph(meth)
            if para:
                lines.append(f"- **`.{mname}{signature_of(meth)}`** — {para}")
        if methods:
            lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(first_paragraph(obj) + "\n")
    else:
        lines.append(f"### `{name}`\n")
        para = first_paragraph(obj)
        lines.append((para or f"Constant of type `{type(obj).__name__}`.")
                     + "\n")
    return lines


def render() -> str:
    """The full text of ``docs/api.md`` for the tree as imported."""
    out = ["# API reference",
           "",
           "Generated from docstrings by `tools/gen_api_docs.py`; do not",
           "edit by hand.  One section per package, one entry per public",
           "name (`__all__`).",
           ""]
    seen = set()
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(f"## {pkg_name}")
        out.append("")
        out.append(first_paragraph(pkg))
        out.append("")
        for name, obj in public_members(pkg):
            key = (getattr(obj, "__module__", ""), name)
            if key in seen:
                continue
            seen.add(key)
            out.extend(render_member(name, obj))
    return "\n".join(out).rstrip() + "\n"


def main() -> int:
    text = render()
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        f.write(text)
    print(f"wrote {os.path.abspath(OUT)} ({text.count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

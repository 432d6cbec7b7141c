"""``docs/api.md`` is generated; fail when it drifts from the code.

Regenerate with ``PYTHONPATH=src python tools/gen_api_docs.py`` after
touching any ``__all__`` or public docstring.
"""

import importlib.util
import os

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def test_checked_in_api_reference_matches_the_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", os.path.join(ROOT, "tools", "gen_api_docs.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    with open(os.path.join(ROOT, "docs", "api.md"), encoding="utf-8") as fh:
        checked_in = fh.read()
    assert gen.render() == checked_in, (
        "docs/api.md is stale: rerun tools/gen_api_docs.py")

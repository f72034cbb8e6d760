"""The bundled fixtures are exactly what ``tools/make_fixtures.py`` writes."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from conftest import FIXTURES

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_generator_reproduces_bundled_fixtures(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("make_fixtures", GENERATOR)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "FIXTURES", tmp_path)
    monkeypatch.setattr(generator, "REPLAY", tmp_path / "replay")
    generator.main()
    generated, bundled = _tree(tmp_path), _tree(FIXTURES)
    assert sorted(generated) == sorted(bundled)
    drifted = [name for name in bundled if generated[name] != bundled[name]]
    assert drifted == []

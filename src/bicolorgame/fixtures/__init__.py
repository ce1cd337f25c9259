"""Built-in example rotation systems shipped as package data."""

from __future__ import annotations

from importlib import resources

from ..embedded import EmbeddedGraph, parse_rotation_system

__all__ = ["fixture_names", "fixture_text", "load_fixture"]


def fixture_names() -> list[str]:
    """Names of the bundled rotation systems, sorted."""
    root = resources.files(__package__)
    return sorted(p.name[: -len(".rot")] for p in root.iterdir() if p.name.endswith(".rot"))


def fixture_text(name: str) -> str:
    """The text of the bundled rotation system ``name``, one of :func:`fixture_names`."""
    names = fixture_names()
    if name not in names:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(names)}")
    return (resources.files(__package__) / f"{name}.rot").read_text(encoding="utf-8")


def load_fixture(name: str) -> EmbeddedGraph:
    return parse_rotation_system(fixture_text(name))

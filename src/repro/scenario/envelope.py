"""The unified scenario envelope: one file layout, two kinds.

Chaos counterexamples (``kind: "chaos"``, replayed through
`repro.chaos`) and workload scenarios (``kind: "workload"``, run through
this package) serialize into the same JSON envelope::

    {"version": 2, "kind": "chaos"|"workload", "name": ..., "digest": ..., ...}

:func:`load_envelope` sniffs the kind and returns the right object;
callers that only accept one kind dispatch on the returned type.
A malformed file — not JSON, another version or kind, a missing or
mistyped field — raises :class:`ValueError` naming the problem.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .catalog import ENVELOPE_VERSION, Scenario

ENVELOPE_KINDS = ("chaos", "workload")


def envelope_kind(payload: Dict[str, Any]) -> str:
    """The kind a parsed envelope payload declares."""
    version = payload.get("version")
    if version != ENVELOPE_VERSION:
        raise ValueError(
            f"unsupported scenario version {version!r} "
            f"(this build reads version {ENVELOPE_VERSION})"
        )
    kind = payload.get("kind")
    if kind not in ENVELOPE_KINDS:
        raise ValueError(
            f"unknown scenario kind {kind!r}; one of {ENVELOPE_KINDS}"
        )
    return kind


def load_envelope(path: Union[str, Path]):
    """Load one scenario file of either kind.

    Returns a :class:`~repro.scenario.catalog.Scenario` or a
    :class:`~repro.chaos.scenario.ChaosScenario`; both are digest-
    verified on load.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(
            f"scenario file must hold a JSON object, got "
            f"{type(payload).__name__}"
        )
    if envelope_kind(payload) == "chaos":
        # Lazy import keeps chaos (hypothesis-adjacent) out of trace-only
        # workflows; the dependency direction stays scenario -> chaos.
        from ..chaos.scenario import ChaosScenario

        return ChaosScenario.from_dict(payload)
    return Scenario.from_dict(payload)


def save_envelope(scenario, path: Union[str, Path]) -> Path:
    """Write either kind as pretty-printed envelope JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return path

"""Sampled-batch records and their line-delimited JSON serialization.

Each line of a batches file is one JSON object:

  {"config": {"max_components": ..., "n_views": ..., "search_depth": ...,
              "seed": ...},
   "provenance": [{"community": ..., "partition": ..., "phase": ...}, ...],
   "scene_id": ..., "truncated": ..., "views": [...]}

Keys are sorted and separators fixed, so identical batches serialize to
identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from enum import Enum

from .errors import MalformedLine
from .recon_io import text_lines


class Phase(Enum):
    TERMINAL = "terminal"
    STEINER = "steiner"
    GREEDY = "greedy"
    FILL = "fill"
    DFS = "dfs"


@dataclass(frozen=True)
class BatchConfig:
    """Resolved per-batch sampling parameters."""

    n_views: int
    max_components: int
    search_depth: int
    seed: int


@dataclass(frozen=True)
class ViewProvenance:
    partition: int
    community: int
    phase: Phase


@dataclass
class SampledBatch:
    scene_id: str
    config: BatchConfig
    views: list[int]
    provenance: list[ViewProvenance]
    truncated: bool = False

    def __post_init__(self):
        if len(self.views) != len(set(self.views)):
            raise ValueError("batch contains duplicate views")
        if len(self.views) != len(self.provenance):
            raise ValueError("one provenance record per view required")


_CONFIG_KEYS = [k.name for k in fields(BatchConfig)]


def _batch_to_record(batch: SampledBatch) -> dict:
    return {
        "scene_id": batch.scene_id,
        "config": asdict(batch.config),
        "views": list(batch.views),
        "provenance": [
            {"partition": p.partition, "community": p.community, "phase": p.phase.value}
            for p in batch.provenance
        ],
        "truncated": batch.truncated,
    }


def _typed(value, kind: type, what: str):
    """`value` if its type is exactly `kind` (so a bool is no int), else ValueError."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def _record_to_batch(record) -> SampledBatch:
    record = _typed(record, dict, "record")
    cfg = _typed(record["config"], dict, "config")
    provenance = []
    for p in _typed(record["provenance"], list, "provenance"):
        p = _typed(p, dict, "provenance entry")
        partition, community = (_typed(p[k], int, k) for k in ("partition", "community"))
        provenance.append(ViewProvenance(partition, community, Phase(p["phase"])))
    return SampledBatch(
        scene_id=_typed(record["scene_id"], str, "scene_id"),
        config=BatchConfig(**{k: _typed(cfg[k], int, k) for k in _CONFIG_KEYS}),
        views=[_typed(v, int, "view id") for v in _typed(record["views"], list, "views")],
        provenance=provenance,
        truncated=_typed(record.get("truncated", False), bool, "truncated"),
    )


def write_batches(batches: list[SampledBatch], path: str) -> None:
    with open(path, "w") as f:
        for batch in batches:
            f.write(json.dumps(_batch_to_record(batch), sort_keys=True, separators=(",", ":")))
            f.write("\n")


def read_batches(path: str) -> list[SampledBatch]:
    batches = []
    for line_no, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            batches.append(_record_to_batch(json.loads(line)))
        except (KeyError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
            raise MalformedLine(line_no, f"bad batch record: {exc}", path) from exc
    return batches

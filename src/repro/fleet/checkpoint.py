"""Per-shard fleet checkpoints: a JSON fragment of the fleet summary.

Replay is deterministic: a tenant's trace regenerates from ``(spec,
tenant, chunk index)`` and its store from the spec, so the only progress
worth keeping is which of a shard's tenants have finished and what their
reports say.  A shard checkpoint is therefore a partial fleet summary,
``{schema, fleet_key, shard, num_shards, volumes}`` with ``volumes`` the
finished volumes' report dicts, written as canonical JSON (sorted keys,
compact separators) through :func:`~repro.obs.atomicio.atomic_write`
(temp file + ``os.replace``, so a kill during the write leaves the
previous complete checkpoint, never a torn one).  The summary's
``SUMMARY_SCHEMA`` versions it; nothing in it is a live object, so no
slot layout can break it.

On resume a shard skips its finished tenants and replays the tenant that
was in flight from chunk 0: re-replaying the chunks it had already done
and then continuing is the same computation as never having stopped.

Loading is loud: an unreadable or torn file (an old pickled checkpoint
included), another schema, another fleet or shard geometry, or a report
for a volume outside the shard raises
:class:`~repro.common.errors.CheckpointError` instead of resuming into a
silently different fleet.
"""

from __future__ import annotations

import json
import os

from repro.common.errors import CheckpointError
from repro.fleet.report import SUMMARY_SCHEMA
from repro.obs.atomicio import atomic_write


def checkpoint_path(checkpoint_dir: str, shard: int,
                    num_shards: int) -> str:
    return os.path.join(checkpoint_dir,
                        f"shard-{shard:04d}-of-{num_shards:04d}.ckpt")


def encode_report(report: dict) -> str:
    """A volume report as canonical JSON text: sorted keys, compact
    separators."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def write_shard_checkpoint(path: str, *, fleet_key: str, shard: int,
                           num_shards: int, volumes: list[str]) -> str:
    """Atomically persist one shard's finished volume reports.

    ``volumes`` are the reports as :func:`encode_report` texts.  A shard
    rewrites its checkpoint after every finished volume, so each report
    is encoded once, not once per rewrite: at 128 volumes per shard with
    metrics and attribution (2-core x86-64, CPython 3.11), re-encoding
    every report on every rewrite cost 1.5–1.7 s per shard, writing the
    pre-encoded texts 0.2 s.  The file is the canonical encoding of the
    whole payload (``volumes`` sorts last among its keys).
    """
    head = encode_report({"schema": SUMMARY_SCHEMA, "fleet_key": fleet_key,
                          "shard": shard, "num_shards": num_shards})
    with atomic_write(path) as f:
        f.write(f'{head[:-1]},"volumes":[{",".join(volumes)}]}}')
    return path


def load_shard_checkpoint(path: str, *, fleet_key: str, shard: int,
                          num_shards: int,
                          tenants: list[str]) -> list[dict] | None:
    """The finished volume reports of a shard checkpoint; ``None`` when
    there is none.  ``tenants`` are the shard's tenant ids."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:  # torn, binary, not JSON
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") \
            from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"unreadable checkpoint {path}: "
                              f"not a JSON object")
    if payload.get("schema") != SUMMARY_SCHEMA:
        raise CheckpointError(
            f"{path}: checkpoint schema {payload.get('schema')!r}, "
            f"expected {SUMMARY_SCHEMA}")
    if payload.get("fleet_key") != fleet_key:
        raise CheckpointError(
            f"{path}: checkpoint belongs to a different fleet "
            f"(key {payload.get('fleet_key')!r})")
    if (payload.get("shard"), payload.get("num_shards")) \
            != (shard, num_shards):
        raise CheckpointError(
            f"{path}: shard geometry {payload.get('shard')}/"
            f"{payload.get('num_shards')} does not match requested "
            f"{shard}/{num_shards} (resume with the same worker count)")
    volumes = payload.get("volumes")
    if not isinstance(volumes, list):
        raise CheckpointError(f"unreadable checkpoint {path}: "
                              f"no volume list")
    for report in volumes:
        volume = report.get("volume") if isinstance(report, dict) else None
        if volume not in tenants:
            raise CheckpointError(
                f"{path}: report for volume {volume!r}, which is not a "
                f"tenant of shard {shard}/{num_shards}")
    return volumes


__all__ = ["checkpoint_path", "encode_report", "load_shard_checkpoint",
           "write_shard_checkpoint"]

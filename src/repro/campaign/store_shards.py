"""Sharded-directory campaign store backend.

Layout::

    campaign.shards/
        campaign.json        # the header (written atomically)
        shard-000.jsonl      # cell records, routed by sha256(cell_id)
        shard-001.jsonl
        ...

Each shard is an independent append-only JSONL file with the same
truncated-tail tolerance as the single-file store, so per-shard crash
semantics are identical.  The shard is the unit a remote worker would
ship home in the multi-machine future: a worker that owns a shard can
append locally and the files merge by concatenation, no record-level
coordination needed.  Shard routing is by stable hash of the cell id,
so a cell always lands in the same shard across runs and resumes.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

from ..errors import CampaignError, StoreIntegrityError
from .store import (
    CELL_TYPE,
    CampaignStoreBase,
    CellRecord,
    GcStats,
    gc_jsonl_file,
    iter_jsonl_payloads,
    open_jsonl_append,
)

#: Header file name inside the store directory.
HEADER_FILE = "campaign.json"

#: Default shard fan-out for new stores.
DEFAULT_SHARDS = 8


def shard_index(cell_id: str, shards: int) -> int:
    """Stable shard routing: same cell, same shard, every run."""
    digest = hashlib.sha256(cell_id.encode()).digest()
    return int.from_bytes(digest[:4], "big") % shards


class ShardedCampaignStore(CampaignStoreBase):
    """Campaign persistence across one directory of shard files."""

    backend = "shards"

    def __init__(self, path: str, durability=None,
                 shards: int = DEFAULT_SHARDS) -> None:
        super().__init__(path.rstrip("/") or path, durability)
        if shards < 1:
            raise CampaignError(f"shards must be >= 1, got {shards}")
        self._shards = shards
        self._handles: Dict[int, TextIO] = {}
        self._unsynced: Dict[int, int] = {}

    # -- layout ----------------------------------------------------------

    def _header_path(self) -> str:
        return os.path.join(self.path, HEADER_FILE)

    def _shard_path(self, index: int) -> str:
        return os.path.join(self.path, f"shard-{index:03d}.jsonl")

    def shard_count(self) -> int:
        """Fan-out of this store (persisted in the header)."""
        if self.exists():
            return int(self.header().get("shards", self._shards))
        return self._shards

    def sidecar_path(self, name: str) -> str:
        return os.path.join(self.path, name)

    # -- reading ---------------------------------------------------------

    def exists(self) -> bool:
        return os.path.isfile(self._header_path())

    def _load_header(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self._header_path(), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(
                f"sharded store {self.path!r} has a corrupt header"
            ) from exc

    def _shard_paths(self) -> List[str]:
        return [self._shard_path(i) for i in range(self.shard_count())]

    def _iter_payloads(self) -> Iterator[Dict[str, Any]]:
        for path in self._shard_paths():
            if not os.path.exists(path):
                continue
            for payload, _ in iter_jsonl_payloads(path):
                if payload.get("type") == CELL_TYPE:
                    yield payload

    def tail(self, cursor: Any = None) -> Tuple[List[CellRecord], Any]:
        offsets: Dict[str, int] = dict(cursor) if cursor else {}
        if not self.exists():
            return [], offsets
        records: List[CellRecord] = []
        for index in range(self.shard_count()):
            path = self._shard_path(index)
            if not os.path.exists(path):
                continue
            key = os.path.basename(path)
            offset = offsets.get(key, 0)
            for payload, end in iter_jsonl_payloads(path, start=offset):
                if payload.get("type") == CELL_TYPE:
                    records.append(CellRecord.from_dict(payload))
                offset = end
            offsets[key] = offset
        return records, offsets

    # -- writing ---------------------------------------------------------

    def _write_header(self, header: Dict[str, Any]) -> None:
        os.makedirs(self.path, exist_ok=True)
        header = dict(header, shards=self._shards)
        # Atomic: a kill during initialise leaves no half-written
        # header for a resume to trip over.
        tmp = self._header_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(header, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._header_path())
        self._header = header

    def _append_payload(self, payload: Dict[str, Any]) -> None:
        index = shard_index(payload["cell_id"], self.shard_count())
        handle = self._handles.get(index)
        if handle is None:
            handle = open_jsonl_append(self._shard_path(index))
            self._handles[index] = handle
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.flush()
        count = self._unsynced.get(index, 0) + 1
        every = self.durability.fsync_every
        if every and count >= every:
            os.fsync(handle.fileno())
            count = 0
        self._unsynced[index] = count

    def flush(self) -> None:
        for index, handle in self._handles.items():
            handle.flush()
            if self._unsynced.get(index):
                os.fsync(handle.fileno())
                self._unsynced[index] = 0

    def _recover_append(self) -> None:
        # Drop every shard handle; reopening goes through
        # open_jsonl_append, which truncates torn tails per shard.
        for handle in self._handles.values():
            try:
                handle.close()
            except OSError:
                pass
        self._handles.clear()
        self._unsynced.clear()

    def _torn_write(self, payload: Dict[str, Any]) -> None:
        index = shard_index(payload["cell_id"], self.shard_count())
        with open(self._shard_path(index), "ab") as handle:
            handle.write(b'{"type": "cell", "cell_id": "to')
            handle.flush()
            os.fsync(handle.fileno())

    def close(self) -> None:
        self.flush()
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    # -- compaction ------------------------------------------------------

    def gc(self) -> GcStats:
        """Compact every shard file independently.

        Shard routing is by cell id, so an error and the ok that
        supersedes it always share a shard -- per-file compaction sees
        the whole history of every cell it touches.
        """
        if not self.exists():
            raise CampaignError(f"no campaign store at {self.path!r}")
        self.header()
        self.close()
        kept = dropped = debris = 0
        for path in self._shard_paths():
            if not os.path.exists(path):
                continue
            shard_kept, shard_dropped, shard_debris = gc_jsonl_file(path)
            kept += shard_kept
            dropped += shard_dropped
            debris += shard_debris
        return GcStats(kept, dropped, debris)

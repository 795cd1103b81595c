"""Durable campaign state: write-ahead log + checkpoint snapshots.

The paper's headline artifact is a 13-month, 9000+-run campaign; over a
horizon like that the *coordinator process itself* dies (host reboot,
OOM, operator ctrl-C).  This module is the run-state layer that makes
the coordinator's own death recoverable:

* :class:`CampaignLog` -- a write-ahead log (``campaign.wal``): one
  canonical-JSON line per record (the RunJournal codec), each line
  carrying a content checksum.  Appends are flushed; *commit* records
  are fsynced.  Reads tolerate a torn tail (the partial final line a
  crash leaves) and truncate it before appending again.
* :class:`CheckpointStore` -- per-occasion snapshots written with the
  atomic temp-file-then-``os.replace`` pattern and verified by SHA-256
  on load.
* :class:`CampaignCheckpointer` -- the narrow interface the coordinator
  and instances see: occasion begin/commit records and sample-level
  progress rows (so a mid-occasion crash can salvage completed samples).
* :func:`fold_records` / :func:`describe_run` / :func:`list_runs` --
  recovery: replay the WAL into the campaign's last durable state.

The commit protocol for one occasion:

1. append ``occasion-begin`` carrying the derived RNG seeds (fsync);
2. run the occasion; each completed sample appends a ``sample`` row
   (flush only -- losing the tail loses samples, not consistency);
3. write the journal segment and the checkpoint file atomically;
4. append ``occasion-commit`` naming both files and their SHA-256
   (fsync).  **The WAL commit is the durability point**: a crash
   between step 3's ``os.replace`` and step 4 leaves an orphan
   checkpoint that recovery ignores and the re-run overwrites.

Sharded occasions (:mod:`repro.core.sharding`) add one record kind
inside step 2: after each per-site worker finishes, the parent -- the
only WAL writer -- appends the shard's sample rows and then a fsynced
``shard-commit`` naming the shard segment and pcaps by SHA-256.  A
resume of an uncommitted occasion re-verifies each shard commit and
re-runs only the shards that are missing or damaged.

Because every stochastic stream is derived from (seed, label) pairs
(:mod:`repro.util.rng`), a checkpoint never serializes live RNG or
simulator state: re-running an occasion from its journaled seeds
reproduces it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.journal import jsonable
from repro.util.atomio import FileIO, atomic_write_bytes, sweep_tmp_files

#: Modules whose writes land on durable run-state paths.  reprolint
#: RL008 uses this registry to flag non-atomic (truncating) writes in
#: them; append-mode opens and :mod:`repro.util.atomio` helpers are the
#: two sanctioned write patterns.
DURABLE_MODULES = (
    "repro/core/checkpoint.py",
    "repro/core/campaign.py",
    "repro/core/gather.py",
    "repro/core/sharding.py",
    "repro/obs/journal.py",
    "repro/testbed/chaos.py",
)

WAL_NAME = "campaign.wal"
MANIFEST_NAME = "campaign.manifest"
CHECKPOINT_DIR = "checkpoints"
SEGMENT_DIR = "journal"


class WalCorruptionError(ValueError):
    """The WAL is damaged beyond the tolerated torn tail."""


def canonical_json(payload: Any) -> str:
    """The RunJournal codec: sorted keys, compact separators."""
    return json.dumps(jsonable(payload), sort_keys=True,
                      separators=(",", ":"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Union[str, Path]) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class WalRecord:
    """One committed WAL line."""

    seq: int
    kind: str
    data: Dict[str, Any]


def _line_checksum(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def _encode_record(seq: int, kind: str, data: Dict[str, Any]) -> bytes:
    body = canonical_json({"data": data, "kind": kind, "seq": seq})
    line = canonical_json({"data": jsonable(data), "kind": kind, "seq": seq,
                           "sum": _line_checksum(body)})
    return (line + "\n").encode("utf-8")


def _decode_line(line: str) -> WalRecord:
    payload = json.loads(line)
    body = canonical_json({"data": payload["data"], "kind": payload["kind"],
                           "seq": payload["seq"]})
    if payload.get("sum") != _line_checksum(body):
        raise ValueError("checksum mismatch")
    return WalRecord(seq=int(payload["seq"]), kind=str(payload["kind"]),
                     data=payload["data"])


def read_wal(path: Union[str, Path]) -> Tuple[List[WalRecord], bool, int]:
    """Parse a WAL, tolerating a torn tail.

    Returns ``(records, torn, valid_bytes)`` where ``valid_bytes`` is
    the length of the longest committed prefix (what a reopening writer
    truncates to).  Damage *before* the final line raises
    :class:`WalCorruptionError` -- a torn tail is the only corruption a
    crash can legitimately produce.
    """
    raw = Path(path).read_bytes()
    # Canonical JSON is pure ASCII with escaped newlines, so a partial
    # append can never *end* with a newline: everything after the last
    # 0x0A byte is exactly the torn fragment (empty = clean termination).
    # The split happens on bytes: decoding first with errors="replace"
    # would inflate each undecodable tail byte (bitrot, a torn multi-byte
    # write) into a 3-byte U+FFFD, undercounting valid_bytes and letting
    # the reopening writer truncate into committed records.
    body, _sep, tail = raw.rpartition(b"\n")
    torn = bool(tail)
    valid_bytes = len(raw) - len(tail)
    records: List[WalRecord] = []
    for i, line_bytes in enumerate(body.split(b"\n") if body else []):
        try:
            records.append(_decode_line(line_bytes.decode("utf-8")))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
            # Terminated lines were written in full; damage here is real
            # corruption, not the signature of a crash.
            raise WalCorruptionError(
                f"{path}: corrupt WAL line {i + 1}: {exc}") from exc
    return records, torn, valid_bytes


class CampaignLog:
    """The append-only write-ahead log of one campaign run directory."""

    def __init__(self, path: Union[str, Path], io: Optional[FileIO] = None):
        self.path = Path(path)
        self.io = io if io is not None else FileIO()
        self._handle = None
        self._next_seq = 0
        self.torn_on_open = False

    def open(self) -> List[WalRecord]:
        """Open for appending, first truncating any torn tail.

        Returns every record committed before the last crash (the
        recovery input).
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        records: List[WalRecord] = []
        if self.path.exists():
            records, torn, valid_bytes = read_wal(self.path)
            self.torn_on_open = torn
            if torn:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_bytes)
        self._next_seq = records[-1].seq + 1 if records else 0
        self._handle = open(self.path, "ab")
        return records

    def append(self, kind: str, data: Dict[str, Any],
               commit: bool = False) -> WalRecord:
        """Append one record; ``commit=True`` fsyncs (durability point)."""
        if self._handle is None:
            raise RuntimeError("CampaignLog is not open")
        seq = self._next_seq
        self.io.write(self._handle, _encode_record(seq, kind, data))
        self._handle.flush()
        if commit:
            self.io.fsync(self._handle)
        self._next_seq += 1
        return WalRecord(seq=seq, kind=kind, data=data)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignLog":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CheckpointStore:
    """Atomic, checksummed per-occasion snapshots."""

    def __init__(self, directory: Union[str, Path],
                 io: Optional[FileIO] = None):
        self.directory = Path(directory)
        self.io = io if io is not None else FileIO()

    def name_for(self, occasion: int) -> str:
        return f"occ{occasion:04d}.ckpt"

    def path_for(self, occasion: int) -> Path:
        return self.directory / self.name_for(occasion)

    def save(self, occasion: int, state: Dict[str, Any]) -> Tuple[Path, str]:
        """Write one snapshot atomically; returns ``(path, sha256)``."""
        data = (canonical_json(state) + "\n").encode("utf-8")
        path = atomic_write_bytes(self.path_for(occasion), data, io=self.io)
        return path, sha256_bytes(data)

    def load(self, occasion: int,
             expect_sha: Optional[str] = None) -> Dict[str, Any]:
        data = self.path_for(occasion).read_bytes()
        if expect_sha is not None and sha256_bytes(data) != expect_sha:
            raise WalCorruptionError(
                f"{self.path_for(occasion)}: checkpoint checksum mismatch")
        return json.loads(data)

    def sweep(self) -> int:
        """Drop temp files a crash left mid-replace."""
        return sweep_tmp_files(self.directory)


@dataclass
class RecoveryState:
    """The campaign's last durable state, folded from the WAL."""

    manifest_sha: Optional[str] = None
    begun: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    committed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    samples: Dict[int, List[Dict[str, Any]]] = field(default_factory=dict)
    # Sharded occasions: per-occasion, per-site shard commits.  Not
    # reset by a fresh ``occasion-begin`` -- shard results are keyed to
    # the occasion's derived seeds, which begin_occasion cross-checks,
    # so a resuming attempt legitimately reuses verified shards.
    shards: Dict[int, Dict[str, Dict[str, Any]]] = field(default_factory=dict)
    ended: Optional[Dict[str, Any]] = None
    torn: bool = False

    def salvageable(self, occasion: int) -> List[Dict[str, Any]]:
        """Sample rows recorded for an occasion that never committed.

        In sharded mode the per-sample rows ride inside each fsynced
        ``shard-commit`` record (the worker cannot write the WAL, so a
        shard is the unit of durability); those rows are salvageable
        exactly like the in-process path's incremental ``sample`` rows.
        """
        if occasion in self.committed:
            return []
        rows = list(self.samples.get(occasion, []))
        for site in sorted(self.shards.get(occasion, {})):
            rows.extend(self.shards[occasion][site].get("samples", []))
        return rows


def fold_records(records: List[WalRecord],
                 torn: bool = False) -> RecoveryState:
    """Replay WAL records into the last durable state.

    Re-runs after a crash append fresh ``occasion-begin``/``sample``
    rows for the same occasion; later records win, and sample rows are
    kept per *attempt* (an ``occasion-begin`` resets the occasion's
    sample list, because a strict re-run regenerates them all).
    """
    state = RecoveryState(torn=torn)
    for record in records:
        data = record.data
        if record.kind == "campaign-begin":
            state.manifest_sha = data.get("manifest_sha")
        elif record.kind == "occasion-begin":
            occasion = int(data["occasion"])
            state.begun[occasion] = data
            state.samples[occasion] = []
        elif record.kind == "sample":
            occasion = int(data["occasion"])
            state.samples.setdefault(occasion, []).append(data)
        elif record.kind == "shard-commit":
            occasion = int(data["occasion"])
            state.shards.setdefault(occasion, {})[str(data["site"])] = data
        elif record.kind in ("occasion-commit", "occasion-salvaged"):
            occasion = int(data["occasion"])
            state.committed[occasion] = data
        elif record.kind == "campaign-end":
            state.ended = data
    return state


def sample_row(run_dir: Union[str, Path], occasion: int, site: str,
               record, t: float) -> Dict[str, Any]:
    """Build the WAL ``sample`` row for one completed sample.

    ``record`` is a :class:`repro.core.instance.SampleRecord`; the row
    carries enough to rebuild the sample's ledger event and a
    content-addressed pointer to its pcap.  Shared by the in-process
    checkpointer and the shard workers (which return rows for the
    parent -- the single WAL writer -- to append).
    """
    run_dir = Path(run_dir)
    pcap = record.pcap_path
    rel = None
    sha = None
    if pcap is not None and Path(pcap).exists():
        pcap = Path(pcap)
        try:
            rel = str(pcap.relative_to(run_dir))
        except ValueError:
            rel = str(pcap)
        sha = sha256_file(pcap)
    ledger = record.ledger.to_event() if record.ledger is not None else None
    return {
        "occasion": occasion,
        "site": site,
        "cycle": record.cycle,
        "run": record.run,
        "sample": record.sample,
        "slot": record.slot,
        "mirrored_port": record.mirrored_port,
        "pcap": rel,
        "pcap_sha256": sha,
        "frames_seen": record.stats.frames_seen,
        "frames_captured": record.stats.frames_captured,
        "bytes_captured": record.stats.bytes_captured,
        "t": t,
        "ledger": ledger,
    }


class CampaignCheckpointer:
    """What the coordinator and instances see of the durable layer.

    ``Coordinator.run_profile`` asks :meth:`occasion_committed` to skip
    occasions a previous process already finished, and calls
    :meth:`record_sample` from the instance sample hook so a
    mid-occasion crash can salvage completed samples as DEGRADED.
    """

    def __init__(self, run_dir: Union[str, Path], log: CampaignLog,
                 store: CheckpointStore,
                 state: Optional[RecoveryState] = None):
        self.run_dir = Path(run_dir)
        self.log = log
        self.store = store
        self.state = state if state is not None else RecoveryState()

    def occasion_committed(self, occasion: int) -> bool:
        return occasion in self.state.committed

    def begin_occasion(self, occasion: int,
                       seeds: Dict[str, int]) -> None:
        """Journal the occasion's derived RNG state before running it."""
        previous = self.state.begun.get(occasion)
        if previous is not None and previous.get("seeds") != jsonable(seeds):
            raise WalCorruptionError(
                f"occasion {occasion}: journaled seeds {previous.get('seeds')} "
                f"!= derived {seeds}; the manifest or WAL is inconsistent")
        self.log.append("occasion-begin",
                        {"occasion": occasion, "seeds": dict(seeds)},
                        commit=True)
        self.state.begun[occasion] = {"occasion": occasion,
                                      "seeds": jsonable(seeds)}
        self.state.samples[occasion] = []

    def record_sample(self, occasion: int, site: str, record,
                      t: float) -> None:
        """Append one sample-progress row (flush, no fsync)."""
        row = sample_row(self.run_dir, occasion, site, record, t)
        self.log.append("sample", row)
        self.state.samples.setdefault(occasion, []).append(row)

    def sample_rows(self, occasion: int) -> List[Dict[str, Any]]:
        """The sample rows this process recorded for ``occasion``."""
        return self.state.samples.get(occasion, [])

    def commit_shard(self, occasion: int, site: str,
                     data: Dict[str, Any]) -> None:
        """Durably record one finished shard (fsynced).

        A parent crash after this record lets resume reuse the shard --
        segment, pcaps, and sample rows -- instead of re-running it.
        """
        payload = dict(data)
        payload["occasion"] = occasion
        payload["site"] = site
        self.log.append("shard-commit", payload, commit=True)
        self.state.shards.setdefault(occasion, {})[site] = payload

    def commit_occasion(self, occasion: int, commit_data: Dict[str, Any],
                        salvaged: bool = False) -> None:
        """The durability point: fsynced after checkpoint ``os.replace``."""
        kind = "occasion-salvaged" if salvaged else "occasion-commit"
        data = dict(commit_data)
        data["occasion"] = occasion
        self.log.append(kind, data, commit=True)
        self.state.committed[occasion] = data


# -- run-directory inspection (repro runs list/describe) -----------------


def describe_run(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Summarize a campaign run directory from its durable state alone."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    wal_path = run_dir / WAL_NAME
    summary: Dict[str, Any] = {
        "path": str(run_dir),
        "state": "not-a-campaign",
        "occasions_total": None,
        "occasions_committed": 0,
        "samples_salvageable": 0,
        "torn_wal": False,
    }
    manifest = None
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError:
            summary["state"] = "corrupt-manifest"
            return summary
        summary["occasions_total"] = manifest.get("occasions")
        summary["sites"] = manifest.get("sites")
        summary["seed"] = manifest.get("seed")
    if not wal_path.exists():
        if manifest is not None:
            summary["state"] = "fresh"
        return summary
    try:
        records, torn, _valid = read_wal(wal_path)
    except WalCorruptionError as exc:
        summary["state"] = "corrupt-wal"
        summary["error"] = str(exc)
        return summary
    state = fold_records(records, torn=torn)
    summary["torn_wal"] = torn
    summary["occasions_committed"] = len(state.committed)
    pending = [o for o in state.begun if o not in state.committed]
    summary["samples_salvageable"] = sum(
        len(state.salvageable(o)) for o in pending)
    if state.ended is not None:
        summary["state"] = "complete"
        summary["success_rate"] = state.ended.get("success_rate")
    elif manifest is None:
        summary["state"] = "resumable-no-manifest"
    else:
        summary["state"] = "resumable"
    return summary


def committed_pcaps(run_dir: Union[str, Path]) -> Dict[str, str]:
    """The pcaps a run's committed occasions name: run-relative path ->
    SHA-256 as committed, in occasion order, then by path."""
    records, torn, _valid = read_wal(Path(run_dir) / WAL_NAME)
    committed = fold_records(records, torn=torn).committed
    return {rel: sha for occasion in sorted(committed)
            for rel, sha in sorted((committed[occasion].get("pcaps")
                                    or {}).items())}


def list_runs(parent: Union[str, Path]) -> List[Dict[str, Any]]:
    """Describe every campaign run directory directly under ``parent``."""
    parent = Path(parent)
    summaries = []
    if (parent / MANIFEST_NAME).exists() or (parent / WAL_NAME).exists():
        summaries.append(describe_run(parent))
    for child in sorted(p for p in parent.iterdir() if p.is_dir()):
        if (child / MANIFEST_NAME).exists() or (child / WAL_NAME).exists():
            summaries.append(describe_run(child))
    return summaries

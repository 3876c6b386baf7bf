"""Multi-machine shard execution over the campaign journal wire format.

A sharded campaign is "each machine runs a disjoint subset of cell indices,
journals land in a shared store, any machine merges":

* ``repro-campaign fig6a --shard 2/4 --journal-dir /shared/journals`` runs
  only the cells :func:`repro.runtime.cells.shard_cell_indices` assigns to
  shard 2 of 4, streaming them to ``fig6a.shard-2-of-4.jsonl``.  A shard run
  *refuses to merge* — it returns a :class:`ShardRunReport`, not a result
  payload, because no single shard holds every cell output.
* ``repro-campaign fig6a --merge-only --journal-dir /shared/journals``
  validates every shard journal against the plan fingerprint, verifies the
  union of journaled indices covers the whole plan (reporting exactly which
  cells and shards are missing otherwise), and merges in plan order — never
  executing a cell.  Because journals store JSON-decoded outputs and the
  merge consumes them in plan order, the merged payload is byte-identical to
  a single-machine run.

Portability across machines rests on the versioned, machine-independent plan
fingerprint (:func:`repro.runtime.journal.plan_fingerprint`): shard journals
written under different ``--cache-dir`` paths (or different hosts entirely)
all validate against the merging machine's plan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.runtime.cells import shard_cell_indices
from repro.runtime.journal import CampaignJournal, normalize_cell_key, plan_fingerprint

#: ``<label>.shard-<k>-of-<n>.jsonl`` — the shard journal naming scheme.
_SHARD_FILE_PATTERN = re.compile(r"\.shard-(?P<index>\d+)-of-(?P<count>\d+)\.jsonl$")


class ShardMergeError(RuntimeError):
    """A merge-only pass found missing, inconsistent or invalid shard journals."""


def parse_shard_journal_name(file_name: str) -> Optional[Tuple[str, "ShardSpec"]]:
    """Split a shard journal file name into ``(label, ShardSpec)``.

    ``"fig6a.shard-2-of-4.jsonl"`` parses to ``("fig6a", ShardSpec(2, 4))``;
    any other name — including plain merged journals like ``"fig6a.jsonl"``
    and malformed coordinates like ``shard-0-of-4`` — returns ``None``.  This
    is the one public decoder of the naming scheme, shared by the merge path
    here and the result store's directory scan.
    """
    match = _SHARD_FILE_PATTERN.search(file_name)
    if match is None:
        return None
    try:
        spec = ShardSpec(index=int(match.group("index")), count=int(match.group("count")))
    except ValueError:
        return None
    return file_name[: match.start()], spec


@dataclass(frozen=True)
class ShardSpec:
    """One shard of an ``n``-way campaign partition (``index`` is 1-based)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index} "
                "(shards are 1-based: '--shard 1/4' is the first of four)"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI spelling ``"k/n"`` (e.g. ``"2/4"``)."""
        match = re.fullmatch(r"(\d+)/(\d+)", str(text).strip())
        if match is None:
            raise ValueError(f"expected K/N (e.g. 2/4), got {text!r}")
        return cls(index=int(match.group(1)), count=int(match.group(2)))

    def describe(self) -> str:
        """The CLI spelling of this shard, ``"k/n"``."""
        return f"{self.index}/{self.count}"

    def cell_indices(self, cell_count: int) -> List[int]:
        """The plan indices this shard owns (strided partition)."""
        return shard_cell_indices(self.index, self.count, cell_count)

    def owner_of(self, cell_index: int) -> int:
        """The 1-based shard index that owns ``cell_index`` under this count."""
        return cell_index % self.count + 1

    def journal_name(self, label: str) -> str:
        """The shard journal file name, ``<label>.shard-k-of-n.jsonl``."""
        return f"{label}.shard-{self.index}-of-{self.count}.jsonl"

    def journal_path(self, journal_dir, label: str) -> Path:
        """The shard journal path under ``journal_dir``."""
        return Path(journal_dir) / self.journal_name(label)


@dataclass(frozen=True)
class ShardRunReport:
    """What a shard run produced: a journal, not a merged payload.

    Merging needs every shard's cells, so a shard run deliberately has no
    result object; the CLI prints this report and ``--merge-only`` (from any
    machine that can see the shared journal store) does the folding.
    """

    experiment_id: str
    shard: ShardSpec
    cell_count: int
    assigned: int
    executed: int
    resumed: int
    journal_path: Path

    def render(self) -> str:
        """One-line human-readable summary of the shard run."""
        return (
            f"{self.experiment_id} shard {self.shard.describe()}: "
            f"{self.assigned}/{self.cell_count} cells assigned "
            f"({self.executed} executed, {self.resumed} resumed) -> {self.journal_path} "
            "(merge with --merge-only once every shard has run)"
        )


def discover_shard_journals(journal_dir, label: str) -> List[Tuple[ShardSpec, Path]]:
    """The shard journal files for ``label``, sorted by shard index.

    Raises :class:`ShardMergeError` when no shard journals exist, when the
    files disagree on the shard count, or when whole shard files are missing
    — a merge must see one journal per shard before cell-level coverage is
    even worth checking.
    """
    journal_dir = Path(journal_dir)
    found: Dict[int, Tuple[ShardSpec, Path]] = {}
    counts = set()
    for path in sorted(journal_dir.glob(f"{label}.shard-*-of-*.jsonl")):
        parsed = parse_shard_journal_name(path.name)
        if parsed is None:
            raise ShardMergeError(
                f"shard journal {path} has an invalid name: expected "
                f"{label}.shard-K-of-N.jsonl with 1 <= K <= N"
            )
        spec = parsed[1]
        counts.add(spec.count)
        found[spec.index] = (spec, path)
    if not found:
        raise ShardMergeError(
            f"no shard journals named {label!r} under {journal_dir} "
            f"(expected {label}.shard-K-of-N.jsonl files)"
        )
    if len(counts) != 1:
        raise ShardMergeError(
            f"shard journals for {label!r} under {journal_dir} disagree on the shard "
            f"count: found counts {sorted(counts)}; merge shards from one partition only"
        )
    count = counts.pop()
    missing = sorted(set(range(1, count + 1)) - set(found))
    if missing:
        raise ShardMergeError(
            f"missing shard journal(s) for {label!r}: "
            f"{', '.join(f'{index}/{count}' for index in missing)} "
            f"(have {', '.join(found[index][0].describe() for index in sorted(found))})"
        )
    return [found[index] for index in sorted(found)]


def load_shard_outputs(plan, journal_dir, label: Optional[str] = None) -> Dict[int, object]:
    """Validate and load every shard journal of ``plan`` into one output map.

    Every journal must carry the plan's (machine-independent) fingerprint and
    its own shard coordinates; every journaled index must belong to the shard
    that recorded it; and the union of indices must cover the whole plan.
    Violations raise :class:`ShardMergeError` naming the exact journals,
    shards and cells involved — a merge never silently recomputes.
    """
    label = label or plan.experiment_id
    outputs: Dict[int, object] = {}
    shard_specs = discover_shard_journals(journal_dir, label)
    # Digest the plan once, not once per shard: fingerprinting serializes
    # every cell's key and kwargs, which is the dominant cost of a merge over
    # many shards of a large plan.
    fingerprint = plan_fingerprint(plan)
    keys = [normalize_cell_key(cell.key) for cell in plan.cells]
    for spec, path in shard_specs:
        journal = CampaignJournal(
            path, plan, shard=(spec.index, spec.count), fingerprint=fingerprint, keys=keys
        )
        completed = journal.load()
        if journal.invalid_reason is not None:
            raise ShardMergeError(
                f"shard journal {path} is not usable: {journal.invalid_reason}"
            )
        for index in completed:
            owner = spec.owner_of(index)
            if owner != spec.index:
                raise ShardMergeError(
                    f"shard journal {path} records cell {index}, which belongs to "
                    f"shard {owner}/{spec.count}, not {spec.describe()} — the journal "
                    "was written under a different partition"
                )
        outputs.update(completed)
    missing = [index for index in range(plan.cell_count) if index not in outputs]
    if missing:
        first_spec = shard_specs[0][0]
        by_shard: Dict[int, List[int]] = {}
        for index in missing:
            by_shard.setdefault(first_spec.owner_of(index), []).append(index)
        detail = "; ".join(
            f"shard {shard}/{first_spec.count} is missing cells {cells}"
            for shard, cells in sorted(by_shard.items())
        )
        raise ShardMergeError(
            f"shard journals for {label!r} cover only "
            f"{plan.cell_count - len(missing)}/{plan.cell_count} cells — {detail}. "
            "Re-run (or --resume) the incomplete shard(s) before merging."
        )
    return outputs

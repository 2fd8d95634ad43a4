"""Trim-transcript record & replay (paper Section 5.4).

With trimmable gradients every run is unique — congestion decides which
packets get trimmed.  For reproducibility the paper proposes recording
the indices of trimmed packets per collective message and replaying the
transcript in a later run (with trimming simulated at the receiver).

:class:`TrimTranscript` is that record: keyed by
``(epoch, message_id, worker)``, holding the sorted list of trimmed
packet indices, JSON-serializable for archival.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

__all__ = ["TrimTranscript"]

Key = Tuple[int, int, int]


class TrimTranscript:
    """Which packets were trimmed, for every message of a training run."""

    def __init__(self) -> None:
        self._entries: Dict[Key, List[int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, epoch: int, message_id: int, worker: int, trimmed: List[int]) -> None:
        """Store the trimmed packet indices of one message."""
        key = (epoch, message_id, worker)
        if key in self._entries:
            raise ValueError(f"transcript already has an entry for {key}")
        indices = sorted(int(i) for i in trimmed)
        if indices and indices[0] < 0:
            raise ValueError(f"negative packet index {indices[0]} for {key}")
        self._entries[key] = indices

    def lookup(self, epoch: int, message_id: int, worker: int) -> List[int]:
        """Trimmed packet indices for one message (raises if unknown)."""
        key = (epoch, message_id, worker)
        if key not in self._entries:
            raise KeyError(
                f"transcript has no entry for epoch={epoch}, "
                f"message={message_id}, worker={worker} — replay ran out of script"
            )
        return list(self._entries[key])

    def total_trimmed(self) -> int:
        """Total trimmed packets across the run."""
        return sum(len(v) for v in self._entries.values())

    # -- persistence --------------------------------------------------------

    def to_json(self) -> str:
        """Serialize; keys become ``"epoch:message:worker"`` strings."""
        payload = {
            f"{e}:{m}:{w}": trimmed for (e, m, w), trimmed in sorted(self._entries.items())
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "TrimTranscript":
        transcript = cls()
        for key, trimmed in json.loads(text).items():
            epoch, message, worker = (int(part) for part in key.split(":"))
            transcript.record(epoch, message, worker, trimmed)
        return transcript

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TrimTranscript":
        return cls.from_json(Path(path).read_text())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrimTranscript):
            return NotImplemented
        return self._entries == other._entries

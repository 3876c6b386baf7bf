"""Serialization helpers for model state and experiment results.

Model state dicts map parameter names to numpy arrays; JSON is the only format
required by the reproduction (results tables, experiment manifests) so the
helpers here convert between numpy-backed state and JSON-compatible builtins.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Dict, Union

import numpy as np

PathLike = Union[str, Path]


def state_dict_to_lists(state: Dict[str, np.ndarray]) -> Dict[str, dict]:
    """Convert a ``{name: ndarray}`` state dict into JSON-serializable form."""
    encoded = {}
    for name, array in state.items():
        array = np.asarray(array)
        encoded[name] = {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "data": array.reshape(-1).tolist(),
        }
    return encoded


def state_dict_from_lists(encoded: Dict[str, dict]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`state_dict_to_lists`."""
    state = {}
    for name, payload in encoded.items():
        array = np.asarray(payload["data"], dtype=np.dtype(payload["dtype"]))
        state[name] = array.reshape(payload["shape"])
    return state


class NumpyJSONEncoder(json.JSONEncoder):
    """JSON encoder that understands numpy scalars and arrays."""

    def default(self, obj):  # noqa: D102 - stdlib override
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


def save_json(path: PathLike, payload: object, indent: int = 2) -> Path:
    """Write ``payload`` as JSON to ``path`` atomically and return the path.

    The payload is written to a same-directory temporary file and moved into
    place with :func:`os.replace`, so concurrent readers (e.g. pooled campaign
    workers sharing a policy cache) never observe a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # O_CREAT with mode 0o666 lets the kernel apply the process umask
    # atomically, so the final file gets ordinary (usually 0644) permissions
    # without mutating global state the way an os.umask() round trip would.
    tmp_name = f"{path}.{os.getpid()}.{id(payload):x}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf8") as handle:
            json.dump(payload, handle, indent=indent, cls=NumpyJSONEncoder)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def save_result(output_dir: PathLike, name: str, result) -> None:
    """Write a campaign result as ``<name>.txt`` and, if it has ``as_dict``, ``<name>.json``.

    The one place results reach disk: one-shot runs, ``orchestrate`` merges
    and the campaign service all save through it, so their payloads can be
    compared with a plain ``diff``.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    text = result.render() if hasattr(result, "render") else str(result)
    (output_dir / f"{name}.txt").write_text(text + "\n", encoding="utf8")
    if hasattr(result, "as_dict"):
        save_json(output_dir / f"{name}.json", result.as_dict())


def load_json(path: PathLike) -> object:
    """Read JSON from ``path``."""
    with Path(path).open("r", encoding="utf8") as handle:
        return json.load(handle)

"""Versioned checkpoint container: a zip of named arrays plus a manifest.

Archive entries use fixed timestamps and stored (uncompressed) payloads so
that identical models serialize to identical bytes.  Format 2 stores each
attention block's weights with the head on the leading axis; format-1
archives, which hold one array per head, are stacked on load.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .encoder import EmbeddingTable
from .errors import ValidationError
from .model import Model, ModelConfig, stack_heads
from .tensor import Tensor

FORMAT_VERSION = 2
_EPOCH = (1980, 1, 1, 0, 0, 0)


def _entry(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_STORED
    return info


def save_checkpoint(path: str | Path, model: Model, extra: dict | None = None) -> None:
    """Write the model (parameters, vocabulary, charges, config) to ``path``."""
    names = sorted(model.params)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "lexchain-checkpoint",
        "config": model.cfg.to_dict(),
        "extra": extra or {},
        "vocab": model.table.id_to_token,
        "charges": model.charges,
        "params": [
            {"name": name, "file": f"arrays/{i:05d}.npy",
             "shape": list(model.params[name].shape)}
            for i, name in enumerate(names)
        ],
    }
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(_entry("manifest.json"),
                    json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
        for i, name in enumerate(names):
            buf = io.BytesIO()
            np.save(buf, model.params[name].data, allow_pickle=False)
            zf.writestr(_entry(f"arrays/{i:05d}.npy"), buf.getvalue())


def load_checkpoint(path: str | Path) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra-config dict)."""
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json").decode("utf-8"))
        if manifest.get("kind") != "lexchain-checkpoint":
            raise ValidationError(f"{path} is not a model checkpoint")
        version = manifest.get("format_version")
        if type(version) is not int or version not in (1, FORMAT_VERSION):
            raise ValidationError(f"unsupported checkpoint format {version!r}")
        cfg = ModelConfig(**manifest["config"])
        params: dict[str, Tensor] = {}
        for spec in manifest["params"]:
            arr = np.load(io.BytesIO(zf.read(spec["file"])), allow_pickle=False)
            if list(arr.shape) != spec["shape"]:
                raise ValidationError(
                    f"checkpoint array {spec['name']!r} has shape {arr.shape}, "
                    f"manifest says {spec['shape']}"
                )
            params[spec["name"]] = Tensor(arr, requires_grad=True, name=spec["name"])
    if version == 1:
        stack_heads(params, cfg)
    vocab = {tok: i for i, tok in enumerate(manifest["vocab"])}
    table = EmbeddingTable(vocab, params["embed"])
    model = Model(cfg, table, manifest["charges"], params)
    return model, manifest.get("extra", {})

"""Versioned checkpoint container: a zip of named arrays plus a manifest.

Archive entries use fixed timestamps and stored (uncompressed) payloads so
that identical models serialize to identical bytes.  Format 2 stores each
attention block's weights with the head on the leading axis; format-1
archives, which hold one array per head, are stacked on load.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from .encoder import SPECIAL_TOKENS, EmbeddingTable
from .errors import ValidationError, is_a, parse_json
from .model import Model, ModelConfig, param_shapes
from .tensor import Tensor

FORMAT_VERSION = 2
_EPOCH = (1980, 1, 1, 0, 0, 0)
_MANIFEST_KEYS = {"format_version", "kind", "config", "vocab", "charges", "params"}
_CONFIG_KEYS = {f.name for f in fields(ModelConfig)}


def _entry(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_STORED
    return info


def save_checkpoint(path: str | Path, model: Model, extra: dict | None = None) -> None:
    """Write the model (parameters, vocabulary, charges, config) to ``path``.

    The archive is written to a hidden sibling file and moved over ``path``
    only when complete, so a failed save leaves an earlier checkpoint intact.
    """
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
    target = Path(path)
    partial = target.with_name(f".{target.name}.tmp")
    try:
        with zipfile.ZipFile(partial, "w") as zf:
            zf.writestr(_entry("manifest.json"),
                        json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
            for i, name in enumerate(names):
                buf = io.BytesIO()
                np.save(buf, model.params[name].data, allow_pickle=False)
                zf.writestr(_entry(f"arrays/{i:05d}.npy"), buf.getvalue())
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra-config dict).

    A file that is not a zip archive, or an archive whose manifest, config
    keys or arrays do not describe a model, raises ValidationError.
    """
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise ValidationError(f"{path} is not a checkpoint archive: {exc}") from exc
    with zf:
        manifest = _read_manifest(zf, path)
        version = manifest["format_version"]
        cfg = ModelConfig(**manifest["config"])
        params: dict[str, Tensor] = {}
        for spec in manifest["params"]:
            arr = _read_array(zf, path, spec)
            if spec["name"] in params:
                raise ValidationError(f"{path} manifest lists array {spec['name']!r} more than once")
            if list(arr.shape) != spec["shape"]:
                raise ValidationError(
                    f"checkpoint array {spec['name']!r} has shape {arr.shape}, "
                    f"manifest says {spec['shape']}"
                )
            params[spec["name"]] = Tensor(arr, requires_grad=True, name=spec["name"])
    if version == 1:
        _stack_heads(params, cfg)
    vocab = {tok: i for i, tok in enumerate(manifest["vocab"])}
    _check_params(params, cfg, len(vocab), manifest["charges"], path)
    table = EmbeddingTable(vocab, params["embed"])
    model = Model(cfg, table, params)
    return model, manifest.get("extra", {})


def _read_manifest(zf: zipfile.ZipFile, path: str | Path) -> dict:
    """The archive's manifest, with its keys, vocabulary and config keys checked."""
    try:
        text = zf.read("manifest.json").decode("utf-8")
    except KeyError as exc:
        raise ValidationError(f"{path} has no manifest.json") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} has an unreadable manifest.json: {exc}") from exc
    manifest = parse_json(text, lambda reason, _: ValidationError(
        f"{path} has an unreadable manifest.json: {reason}"))
    if not isinstance(manifest, dict) or manifest.get("kind") != "lexchain-checkpoint":
        raise ValidationError(f"{path} is not a model checkpoint")
    version = manifest.get("format_version")
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise ValidationError(f"unsupported checkpoint format {version!r}")
    _check_keys(manifest, _MANIFEST_KEYS, _MANIFEST_KEYS | {"extra"}, f"{path} manifest")
    if not isinstance(manifest.get("extra", {}), dict):
        raise ValidationError(f"{path} manifest extra is not an object")
    if not all(isinstance(manifest[key], list) for key in ("vocab", "charges", "params")):
        raise ValidationError(f"{path} manifest vocab, charges and params must be lists")
    if not all(isinstance(item, str) for key in ("vocab", "charges") for item in manifest[key]):
        raise ValidationError(f"{path} manifest vocab and charges must hold strings")
    vocab = manifest["vocab"]
    if tuple(vocab[:len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
        raise ValidationError(f"{path} manifest vocab must start with {list(SPECIAL_TOKENS)}, "
                              f"got {vocab[:len(SPECIAL_TOKENS)]}")
    repeated = sorted(tok for tok, count in Counter(vocab).items() if count > 1)
    if repeated:
        raise ValidationError(f"{path} manifest vocab holds tokens more than once: {repeated}")
    config = manifest["config"]
    if not isinstance(config, dict):
        raise ValidationError(f"{path} manifest config is not an object")
    _check_keys(config, _CONFIG_KEYS, _CONFIG_KEYS, f"{path} manifest config")
    if not all(type(v) is int for v in config.values()):
        raise ValidationError(f"{path} manifest config values must be integers: {config}")
    if config["layers"] > len(manifest["params"]):  # each layer holds several arrays
        raise ValidationError(f"{path} manifest config has more layers than params entries")
    return manifest


def _stack_heads(params: dict[str, Tensor], cfg: ModelConfig) -> None:
    """Replace a format-1 archive's per-head attention weights ``{block}.{i}.W*``
    by one ``{block}.W*`` with the head on the leading axis.

    Raises ValidationError when a head's weight is missing or misshapen.
    """
    for name, shape in param_shapes(cfg, 0, []).items():
        if len(shape) != 3:  # only attention weights carry a head axis
            continue
        block, _, weight = name.rpartition(".")
        heads = []
        for i in range(shape[0]):
            head_name = f"{block}.{i}.{weight}"
            t = params.pop(head_name, None)
            if t is None or t.shape != shape[1:]:
                raise ValidationError(f"format-1 weight {head_name!r} is missing "
                                      f"or not of shape {shape[1:]}")
            heads.append(t.data)
        params[name] = Tensor(np.stack(heads), requires_grad=True, name=name)


def _check_params(params: dict[str, Tensor], cfg: ModelConfig, vocab_size: int,
                  charges: list, path: str | Path) -> None:
    """The parameters are exactly those the config and the listed charges imply, shapes too."""
    expected = param_shapes(cfg, vocab_size, charges)
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    misshapen = sorted(name for name in set(expected) & set(params)
                       if params[name].shape != expected[name])
    if missing or extra or misshapen:
        raise ValidationError(
            f"{path} does not hold the parameters its config implies: missing {missing}, "
            f"unexpected {extra}, misshapen "
            f"{[f'{n} {params[n].shape} != {expected[n]}' for n in misshapen]}"
        )


def _check_keys(obj: dict, required: set[str], allowed: set[str], what: str) -> None:
    missing = sorted(required - set(obj))
    unknown = sorted(set(obj) - allowed)
    if missing or unknown:
        raise ValidationError(f"{what} has missing keys {missing} and unknown keys {unknown}")


def _read_array(zf: zipfile.ZipFile, path: str | Path, spec) -> np.ndarray:
    if (not isinstance(spec, dict) or not {"name", "file", "shape"} <= set(spec)
            or not all(is_a(spec[key], kind)
                       for key, kind in (("name", str), ("file", str), ("shape", list)))):
        raise ValidationError(f"{path} manifest has a malformed params entry: {spec!r}")
    try:
        arr = np.load(io.BytesIO(zf.read(spec["file"])), allow_pickle=False)
    except (KeyError, ValueError, OSError) as exc:
        raise ValidationError(f"{path} array {spec['name']!r} cannot be read: {exc}") from exc
    if arr.dtype.str != "<f8":
        raise ValidationError(f"{path} array {spec['name']!r} has dtype {arr.dtype.str}, "
                              f"not <f8")
    if not np.isfinite(arr).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValidationError(f"{path} array {spec['name']!r} is not finite at index {index}")
    return arr

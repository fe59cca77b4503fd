"""Training checkpoints: persist network + optimizer state to one ``.npz``.

Long PINN runs (the paper's span days) need resumable state; this module
flattens the nested ``state_dict`` structures into the flat namespace an
``.npz`` archive requires and restores them loss-free.
"""

from __future__ import annotations

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "load_checkpoint_tree",
           "apply_checkpoint"]


#: separator for flattened paths — parameter names contain dots
#: ("layers.0.weight"), so a slash keeps each name a single path segment
_SEP = "/"


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}{_SEP}{key}" if prefix else str(key), item, out)
    elif isinstance(value, (list, tuple)):
        out[f"{prefix}{_SEP}__len__"] = np.asarray(len(value))
        for i, item in enumerate(value):
            _flatten(f"{prefix}{_SEP}{i}", item, out)
    else:
        out[prefix] = np.asarray(value)


def _unflatten(arrays):
    root = {}
    suffix = f"{_SEP}__len__"
    lengths = {key[: -len(suffix)]: int(arrays[key])
               for key in arrays if key.endswith(suffix)}
    for key, value in arrays.items():
        if key.endswith(suffix):
            continue
        parts = key.split(_SEP)
        node = root
        for i, part in enumerate(parts[:-1]):
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    def listify(node, path=""):
        if not isinstance(node, dict):
            return node
        resolved = {k: listify(v, f"{path}{_SEP}{k}" if path else k)
                    for k, v in node.items()}
        if path in lengths:
            return [resolved[str(i)] for i in range(lengths[path])]
        return resolved
    return listify(root)


def save_checkpoint(path, net, optimizer=None, extra=None):
    """Write a resumable checkpoint.

    Parameters
    ----------
    path:
        Destination ``.npz`` path.
    net:
        Module whose ``state_dict`` to persist.
    optimizer:
        Optional optimizer with ``state_dict()`` (Adam).
    extra:
        Optional dict of additional arrays/scalars (e.g. step counters).
    """
    flat = {}
    _flatten("net", net.state_dict(), flat)
    if optimizer is not None:
        _flatten("optim", optimizer.state_dict(), flat)
    if extra:
        _flatten("extra", dict(extra), flat)
    np.savez_compressed(path, **flat)


def load_checkpoint_tree(path):
    """Read a checkpoint into its nested state tree *without* applying it.

    Callers that must validate a checkpoint against the live trainer (e.g.
    matching extra-module sets) read the tree first, reject cleanly, and
    only then :func:`apply_checkpoint` — so a rejected checkpoint never
    leaves the network or optimizer half-restored.
    """
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    return _unflatten(arrays)


def apply_checkpoint(tree, net, optimizer=None):
    """Apply a tree from :func:`load_checkpoint_tree`; returns ``extra``."""
    net.load_state_dict(tree["net"])
    if optimizer is not None:
        if "optim" not in tree:
            raise KeyError("checkpoint holds no optimizer state")
        optimizer.load_state_dict(tree["optim"])
    return tree.get("extra", {})


def load_checkpoint(path, net, optimizer=None):
    """Restore a checkpoint written by :func:`save_checkpoint`.

    Returns the ``extra`` dict (empty when none was stored).
    """
    return apply_checkpoint(load_checkpoint_tree(path), net, optimizer)

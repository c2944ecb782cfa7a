"""The rule every pipeline value follows: frozen, with read-only arrays
(Frozen), and face ids in 1..N (check_face_ids). It imports nothing
from the package, so every other module can import it.
"""

from __future__ import annotations

from dataclasses import field, fields

import numpy as np


def _fixed(arr: np.ndarray) -> bool:
    """Whether arr is a read-only view down to the bytes behind
    np.frombuffer, or down to a read-only array that owns its data. An
    owner itself is never fixed: numpy lets its holder turn its write
    flag back on, while a view's flag stays off as long as its owner,
    which only the view's `.base` reaches, is read-only."""
    while not arr.flags.writeable:
        base = arr.base
        if type(base) is not np.ndarray:
            return type(base) is bytes
        if base.base is None:
            return not base.flags.writeable
        arr = base
    return False


def _frozen(values, dtype, row) -> np.ndarray:
    """values as a read-only array of dtype and shape (-1, *row). An
    array that is fixed already (see _fixed) is kept, as the same object
    when its dtype and shape match; a conversion that shares memory with
    any other input is copied."""
    fixed = type(values) is np.ndarray and _fixed(values)
    if fixed and values.dtype == dtype and values.shape[1:] == row:
        return values
    arr = np.asarray(values, dtype=dtype).reshape(-1, *row)
    if not fixed and np.may_share_memory(arr, values):
        arr = arr.copy()
    return read_only(arr)


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr, read-only, for a fresh array that nothing else holds, so
    that a Frozen value keeps it without a copy. The write flags of arr
    and of the arrays it is a view of are cleared, and the array that
    owns the memory is handed out only as a view (see _fixed)."""
    owner = arr
    while type(owner) is np.ndarray:
        owner.setflags(write=False)
        if owner.base is None:
            return owner.view() if owner is arr else arr
        owner = owner.base
    return arr


def array(dtype, shape=(-1, 3)):
    """A Frozen field: a read-only array of dtype and shape -1 or (-1, 3)."""
    return field(metadata={"array": (np.dtype(dtype), () if shape == -1 else shape[1:])})


class Frozen:
    """The rule of every pipeline value, for a frozen dataclass with
    eq=False: each `array()` field is kept read-only, so the value can be
    neither reassigned nor edited in place, and an array a caller passes
    is copied unless it is fixed (see _fixed): the package's own fresh
    arrays (read_only) and the bytes behind np.frombuffer are kept. The
    rule guards against accidental edits, not deliberate ones: anyone
    can turn the write flag of an owner back on through `.base`. Two
    values of one type are equal when every field is; a value is not
    hashable.
    """

    def __post_init__(self):
        for f in fields(self):
            if spec := f.metadata.get("array"):
                object.__setattr__(self, f.name, _frozen(getattr(self, f.name), *spec))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    __hash__ = None


def bad_face_id(faces: np.ndarray, n_vertices: int):
    """The rule for face ids: each lies in 1..n_vertices. (row, id) of
    the first id in row order that breaks it, else None. A min/max pass
    decides; only an array that breaks the rule is searched."""
    if faces.size:
        lo, hi = int(faces.min()), int(faces.max())
        if lo < 1 or hi > n_vertices:
            at = int(np.argmax((faces < 1) | (faces > n_vertices)))
            return at // 3, int(faces.flat[at])
    return None


def check_face_ids(faces: np.ndarray, n_vertices: int, error=ValueError,
                   base: int = 1, lines=None):
    """Raise error unless the (M, 3) 1-based faces keep the rule of
    bad_face_id. Its message names the first bad id and the valid range
    as a file whose ids count from base writes them; with `lines`, the
    line of each face row, error is a MeshParseError and names the bad
    row's line too."""
    if (bad := bad_face_id(faces, n_vertices)) is not None:
        row, idx = bad
        message = (f"face index out of range: {idx - 1 + base} "
                   f"(valid range {base}..{n_vertices - 1 + base})")
        raise error(message) if lines is None else error(message, int(lines[row]))

"""Workload generators.

- :func:`software_update_workload` — Shotgun's workload: an old software
  image and a new image differing in a controlled fraction of its bytes
  (think: rebuilding some objects of a deployed experiment).

The paper's main workload, one synthetic file, is
:meth:`repro.core.download.FileObject.synthetic`.
"""

from repro.common.rng import split_rng
from repro.core.download import FileObject

__all__ = ["software_update_workload"]


def software_update_workload(image_size, delta_fraction=0.5, chunk=4096, seed=0):
    """Return ``(old_image, new_image)`` byte strings.

    The new image keeps ``1 - delta_fraction`` of the old image's chunks
    verbatim (rsync will COPY them) and replaces the rest with fresh
    random bytes (rsync ships them as literals) — the paper's Figure 15
    update carried ~24 MB of deltas.
    """
    if not 0.0 <= delta_fraction <= 1.0:
        raise ValueError(
            f"delta_fraction must be in [0, 1], got {delta_fraction}"
        )
    rng = split_rng(seed, "workload.update")
    old_image = FileObject.synthetic(image_size, chunk, seed=seed).data
    pieces = []
    for offset in range(0, image_size, chunk):
        piece = old_image[offset : offset + chunk]
        if rng.random() < delta_fraction:
            piece = bytes(rng.randrange(256) for _ in range(len(piece)))
        pieces.append(piece)
    return old_image, b"".join(pieces)


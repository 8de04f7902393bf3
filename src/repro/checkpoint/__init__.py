"""``repro.checkpoint`` — durable checkpoint images and warm standbys.

The live-update plane (``repro.mcr``) keeps a server alive across a
*version* change; this package keeps its *state* alive across a host
crash.  Four pieces:

* ``image``   — the one checkpoint container, and the full image in it:
  a deterministic, versioned on-disk serialization of one quiesced
  server tree — every mapping's resident pages (a page nobody wrote is
  all zero and is neither stored nor read), the fd/listener/socket
  tables, ptmalloc bookkeeping, and per-thread call-stack positions,
  integrity-headed by the same ``TreeFingerprint`` the rollback
  verifier uses.  Written atomically (tmp + rename), so a torn write
  never replaces the last good image.  ``CheckpointImage.decode`` is
  the only decoder, for images and deltas alike.
* ``restore`` — rehydrates an image into a fresh ``Node``
  (boot-and-graft: boot the same server version to its deterministic
  quiesced shape, validate *everything* against the image, then overlay
  the mutable state).  A bad image raises ``ImageError`` naming the
  failing section *before* any mutation — never a partial restore.
* ``delta``   — incremental checkpoints: after a full image, an image
  of only the pages written since (via
  ``PageTracker.pages_written_since``) plus any changed fd/allocator
  records and the listener table, each stamped with a sequence number
  and the base image id.
* ``standby`` — a warm standby continuously applying the delta stream
  to a restored-but-still-quiesced twin, promotable in milliseconds
  when the primary dies (``repro.fleet.failover`` drives the drills).
"""

from repro.checkpoint.delta import (
    DeltaBaseline,
    capture_delta,
    capture_delta_locked,
    hold_quiesced,
)
from repro.checkpoint.image import (
    FORMAT_VERSION,
    CheckpointImage,
    checkpoint_node,
    read_image,
    write_image,
)
from repro.checkpoint.restore import restore_image, resume_node
from repro.checkpoint.standby import StandbyChannel, WarmStandby

__all__ = [
    "CheckpointImage",
    "DeltaBaseline",
    "FORMAT_VERSION",
    "StandbyChannel",
    "WarmStandby",
    "capture_delta",
    "capture_delta_locked",
    "checkpoint_node",
    "hold_quiesced",
    "read_image",
    "restore_image",
    "resume_node",
    "write_image",
]

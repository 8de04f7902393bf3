"""Build configurations and the static instrumentation pass.

The paper builds MCR-enabled programs by linking with ``libmcr.a`` and
running an LLVM link-time pass; the pass (i) wraps profiled blocking call
sites for unblockification, (ii) registers relocation/data-type tags for
static objects, and (iii) rewrites allocator call sites to tag-maintaining
wrappers.  Our equivalent operates on ``Program`` objects at load time.

``BuildConfig`` mirrors the *cumulative* configurations of Table 3:

=============  ==========================================================
``baseline()``  no MCR at all (the normalization denominator)
``unblock()``   unblockification only
``sinstr()``    + static instrumentation (tags, allocator wrappers)
``dinstr()``    + dynamic instrumentation (library allocation tracking,
                process/thread metadata)
``qdet()``      + quiescence-detection hooks — the full MCR configuration
=============  ==========================================================

``instrument_regions`` is the orthogonal ``nginx_reg`` knob (custom region
allocator instrumentation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mem.tags import ORIGIN_STATIC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.process import Process
    from repro.runtime.program import Program


class BuildConfig:
    """Which MCR instrumentation layers a binary was built/run with."""

    def __init__(
        self,
        unblockify: bool = False,
        static_instr: bool = False,
        dynamic_instr: bool = False,
        qdet: bool = False,
        instrument_regions: bool = False,
    ) -> None:
        self.unblockify = unblockify
        self.static_instr = static_instr
        self.dynamic_instr = dynamic_instr
        self.qdet = qdet
        self.instrument_regions = instrument_regions

    @property
    def mcr_enabled(self) -> bool:
        """Any layer present => libmcr.so must be preloaded."""
        return self.unblockify or self.static_instr or self.dynamic_instr or self.qdet

    @property
    def updatable(self) -> bool:
        """Can this build actually take a live update? Needs everything."""
        return self.unblockify and self.static_instr and self.dynamic_instr and self.qdet

    # -- the Table-3 ladder -------------------------------------------------

    @classmethod
    def baseline(cls) -> "BuildConfig":
        return cls()

    @classmethod
    def unblock(cls) -> "BuildConfig":
        return cls(unblockify=True)

    @classmethod
    def sinstr(cls, instrument_regions: bool = False) -> "BuildConfig":
        return cls(unblockify=True, static_instr=True, instrument_regions=instrument_regions)

    @classmethod
    def dinstr(cls, instrument_regions: bool = False) -> "BuildConfig":
        return cls(
            unblockify=True,
            static_instr=True,
            dynamic_instr=True,
            instrument_regions=instrument_regions,
        )

    @classmethod
    def qdet(cls, instrument_regions: bool = False) -> "BuildConfig":
        return cls(
            unblockify=True,
            static_instr=True,
            dynamic_instr=True,
            qdet=True,
            instrument_regions=instrument_regions,
        )

    full = qdet  # alias: the complete MCR configuration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BuildConfig {vars(self)}>"


def apply_static_instrumentation(process: "Process", program: "Program") -> None:
    """Register relocation/data-type tags for every static object.

    The static pass knows every global's symbol name and declared type —
    exactly what it emits as tags in the paper.  Char buffers, unions, and
    other opaque-typed globals still get a tag (their *extent* is known);
    their contents simply route to the conservative scanner.
    """
    for symbol in process.symbols:
        process.tags.register(
            symbol.address,
            symbol.type,
            ORIGIN_STATIC,
            site=symbol.name,
            name=symbol.name,
        )

"""A small simulated filesystem.

Servers read configuration files at startup and write logs; vsftpd and
httpd serve file content.  The filesystem is shared world state (all
processes see the same tree), which is exactly why replayed startup code in
the new version must not blindly re-execute destructive file operations —
mutable reinitialization decides per-syscall whether to replay or run live.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SimError


class SimFile:
    """An inode: its content (the object is its identity)."""

    def __init__(self, content: bytes = b"") -> None:
        self.content = bytearray(content)


class OpenFile:
    """An open-file description (shared across dup/fork), with an offset."""

    def __init__(self, file: SimFile, path: str, flags: str) -> None:
        self.file = file
        self.path = path
        self.flags = flags
        self.offset = 0
        self.refcount = 1

    kind = "file"

    def acquire(self) -> None:
        self.refcount += 1

    def release(self) -> None:
        self.refcount -= 1

    def read(self, size: int) -> bytes:
        data = bytes(self.file.content[self.offset : self.offset + size])
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        if "a" in self.flags:
            self.file.content.extend(data)
        else:
            end = self.offset + len(data)
            if end > len(self.file.content):
                self.file.content.extend(b"\x00" * (end - len(self.file.content)))
            self.file.content[self.offset : end] = data
            self.offset = end
        return len(data)


class SimFileSystem:
    """Path -> file map; flat namespace with directory-ish prefixes."""

    def __init__(self) -> None:
        self._files: Dict[str, SimFile] = {}

    def create(self, path: str, content: bytes = b"") -> SimFile:
        file = SimFile(content)
        self._files[path] = file
        return file

    def open(self, path: str, flags: str = "r") -> OpenFile:
        file = self._files.get(path)
        if file is None:
            if "w" in flags or "a" in flags:
                file = self.create(path)
            else:
                raise SimError(f"no such file: {path}")
        if "w" in flags:
            file.content = bytearray()
        return OpenFile(file, path, flags)

    def size(self, path: str) -> Optional[int]:
        file = self._files.get(path)
        return None if file is None else len(file.content)

"""Content model: byte payloads that do not have to be materialized.

The benchmarks move gigabytes of "random data" through the storage services
(paper Algorithm 1 uploads 100 MB per worker; downloads total 2 GB per
worker).  Holding that in RAM as real ``bytes`` would make the simulation
memory-bound, so the data plane operates on :class:`Content` values:

* :class:`BytesContent` — real bytes (used by the emulator, examples, and
  semantics tests),
* :class:`SyntheticContent` — a virtual buffer defined by ``(seed, origin,
  size)`` whose bytes are a deterministic *positional* function, so slicing
  commutes with materialization: ``c.slice(a, b).to_bytes() ==
  c.to_bytes()[a:b]`` without ever materializing ``c``,
* :class:`CompositeContent` — zero-copy concatenation.

All content values are immutable.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

from .errors import OutOfRangeError

__all__ = [
    "Content",
    "BytesContent",
    "SyntheticContent",
    "CompositeContent",
    "ZeroContent",
    "as_content",
    "concat",
    "random_content",
]

# splitmix64 constants — a well-mixed positional byte generator.
_PRIME_1 = 0x9E3779B97F4A7C15
_PRIME_2 = 0xBF58476D1CE4E5B9
_PRIME_3 = 0x94D049BB133111EB


def _positional_bytes(seed: int, origin: int, size: int) -> bytes:
    """Deterministic bytes for positions ``origin .. origin+size``."""
    if size == 0:
        return b""
    # Bound here, not at module load: the service tier stores the bytes it
    # is sent and never materializes synthetic content, so it loads no numpy.
    import numpy as np

    pos = np.arange(origin, origin + size, dtype=np.uint64)
    # uint64 arithmetic wraps modulo 2**64 by design (splitmix64); silence
    # numpy's overflow warning for the deliberate wrap-around multiply.
    with np.errstate(over="ignore"):
        seed_term = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
                     * np.uint64(_PRIME_1))
    x = pos + seed_term
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_PRIME_2)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_PRIME_3)
    x = x ^ (x >> np.uint64(31))
    return (x & np.uint64(0xFF)).astype(np.uint8).tobytes()


class Content:
    """Abstract immutable byte payload."""

    __slots__ = ()

    @property
    def size(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def slice(self, start: int, stop: int) -> "Content":  # pragma: no cover
        raise NotImplementedError

    def to_bytes(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check_range(self, start: int, stop: int) -> None:
        if not (0 <= start <= stop <= self.size):
            raise OutOfRangeError(
                f"range [{start}, {stop}) outside content of size {self.size}"
            )

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Content):
            return NotImplemented
        if self.size != other.size:
            return False
        return self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:  # content values are small or test-only
        return hash((self.size, self.to_bytes() if self.size <= 1 << 16 else id(self)))


class BytesContent(Content):
    """Content backed by real bytes."""

    __slots__ = ("_data",)

    def __init__(self, data: Union[bytes, bytearray, memoryview]) -> None:
        self._data = bytes(data)

    @property
    def size(self) -> int:
        return len(self._data)

    def slice(self, start: int, stop: int) -> "BytesContent":
        self._check_range(start, stop)
        return BytesContent(self._data[start:stop])

    def to_bytes(self) -> bytes:
        return self._data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BytesContent(size={self.size})"


class SyntheticContent(Content):
    """A virtual buffer of positionally-generated pseudo-random bytes."""

    __slots__ = ("_seed", "_origin", "_size")

    def __init__(self, size: int, seed: int = 0, origin: int = 0) -> None:
        if size < 0:
            raise ValueError("size must be >= 0")
        self._seed = int(seed)
        self._origin = int(origin)
        self._size = int(size)

    @property
    def size(self) -> int:
        return self._size

    @property
    def seed(self) -> int:
        return self._seed

    def slice(self, start: int, stop: int) -> "SyntheticContent":
        self._check_range(start, stop)
        return SyntheticContent(stop - start, self._seed, self._origin + start)

    def to_bytes(self) -> bytes:
        return _positional_bytes(self._seed, self._origin, self._size)


class ZeroContent(Content):
    """All-zero bytes (uninitialized page-blob ranges read as zeros)."""

    __slots__ = ("_size",)

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be >= 0")
        self._size = int(size)

    @property
    def size(self) -> int:
        return self._size

    def slice(self, start: int, stop: int) -> "ZeroContent":
        self._check_range(start, stop)
        return ZeroContent(stop - start)

    def to_bytes(self) -> bytes:
        return bytes(self._size)


class CompositeContent(Content):
    """Zero-copy concatenation of child contents."""

    __slots__ = ("_parts", "_size", "_offsets")

    def __init__(self, parts: Sequence[Content]) -> None:
        flat: List[Content] = []
        for p in parts:
            if isinstance(p, CompositeContent):
                flat.extend(p._parts)
            elif p.size > 0:
                flat.append(p)
        self._parts = tuple(flat)
        self._offsets: List[int] = []
        off = 0
        for p in self._parts:
            self._offsets.append(off)
            off += p.size
        self._size = off

    @property
    def size(self) -> int:
        return self._size

    @property
    def parts(self) -> Sequence[Content]:
        return self._parts

    def slice(self, start: int, stop: int) -> Content:
        self._check_range(start, stop)
        if start == stop:
            return BytesContent(b"")
        out: List[Content] = []
        for off, part in zip(self._offsets, self._parts):
            end = off + part.size
            if end <= start:
                continue
            if off >= stop:
                break
            lo = max(start, off) - off
            hi = min(stop, end) - off
            out.append(part.slice(lo, hi))
        if len(out) == 1:
            return out[0]
        return CompositeContent(out)

    def to_bytes(self) -> bytes:
        return b"".join(p.to_bytes() for p in self._parts)


def as_content(data: Union[Content, bytes, bytearray, memoryview, str]) -> Content:
    """Coerce raw inputs to a :class:`Content` (strings become UTF-8)."""
    if isinstance(data, Content):
        return data
    if isinstance(data, str):
        return BytesContent(data.encode("utf-8"))
    if isinstance(data, (bytes, bytearray, memoryview)):
        return BytesContent(data)
    raise TypeError(f"cannot convert {type(data).__name__} to Content")


def concat(parts: Iterable[Content]) -> Content:
    """Concatenate contents without copying."""
    parts = [p for p in parts if p.size > 0]
    if not parts:
        return BytesContent(b"")
    if len(parts) == 1:
        return parts[0]
    return CompositeContent(parts)


def random_content(size: int, seed: int) -> SyntheticContent:
    """The benchmark's ``randomdata(size)``: a virtual random buffer."""
    return SyntheticContent(size, seed=seed)

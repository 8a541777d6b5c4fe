"""Persistent on-disk cache of built programs and generated traces.

Sweeps re-build the same synthetic programs and re-generate the same
traces in every process that runs them — serial runners, every parallel
worker, every benchmark invocation.  Both artifacts are pure functions of
their inputs (``build_workload`` is deterministic; a trace is determined
by ``(program, n_instructions, seed)`` and the generation algorithm), so
they can be cached on disk across processes *and* process generations.

Layout (one directory per keyed artifact pair)::

    <cache_dir>/v<CACHE_FORMAT_VERSION>/<workload>/<key>/
        program.pkl   # pickled Program
        trace.npz     # trace/io.py npz format

where ``<key>`` is ``t<trace_length>-s<seed>-g<GENERATOR_VERSION>``.
Invalidation is by construction: any input that could change the bytes is
part of the path, so a bumped ``GENERATOR_VERSION`` or a different
``(trace_length, seed)`` simply misses and regenerates.  Nothing is ever
reused across a format bump.

Writes are atomic (temp file + ``os.replace``) so concurrent workers can
share one cache directory: the worst case under a race is building the
same artifact twice, never reading a half-written one.  Corrupt entries
(truncated files, unpicklable programs) are treated as misses and
overwritten, not errors.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import re
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.branch.stream import STREAM_FORMAT_VERSION, PredictionStream
from repro.errors import ExperimentError, TraceError
from repro.program.program import Program
from repro.trace.event import Trace
from repro.trace.generator import GENERATOR_VERSION
from repro.trace.io import load_trace, save_trace

#: On-disk layout version.  Bump when the file formats or the key scheme
#: change; old trees are simply never read again.
CACHE_FORMAT_VERSION = 1

_PROGRAM_FILE = "program.pkl"
_TRACE_FILE = "trace.npz"

#: Entry-key shape: t<trace_length>-s<seed>-g<GENERATOR_VERSION>.
_ENTRY_KEY_RE = re.compile(r"^t\d+-s-?\d+-g(\d+)$")
#: Stream-subdirectory shape: stream-f<STREAM_FORMAT_VERSION>-<digest>.
_STREAM_DIR_RE = re.compile(r"^stream-f(\d+)-[0-9a-f]+$")


@dataclass(slots=True)
class PruneStats:
    """What :meth:`ArtifactCache.prune` reclaimed."""

    entries: int = 0
    bytes_freed: int = 0


class ArtifactCache:
    """Filesystem cache of ``(workload, trace_length, seed)`` artifacts.

    The cache is safe to share between concurrent processes and to keep
    across sessions.  A disabled cache (``ArtifactCache(None)``) is a
    no-op passthrough, so callers never need to branch.
    """

    def __init__(self, cache_dir: str | os.PathLike[str] | None) -> None:
        self.root: Path | None = None if cache_dir is None else Path(cache_dir)
        #: Stores that failed with an OS-level error (full disk, read-only
        #: directory, ...).  The first failure disables the cache for the
        #: rest of the run — a sweep must never die for its cache.
        self.store_failures = 0
        self._disabled = False

    @property
    def enabled(self) -> bool:
        """True when a cache directory was configured and still healthy."""
        return self.root is not None and not self._disabled

    # -- keying -------------------------------------------------------------

    def entry_dir(self, workload: str, trace_length: int, seed: int) -> Path:
        """Directory holding the artifacts for one key (may not exist)."""
        if self.root is None:
            raise ExperimentError("artifact cache is disabled (no cache_dir)")
        if not workload or "/" in workload or workload.startswith("."):
            raise ExperimentError(f"unsafe workload name {workload!r}")
        key = f"t{trace_length}-s{seed}-g{GENERATOR_VERSION}"
        return self.root / f"v{CACHE_FORMAT_VERSION}" / workload / key

    # -- lookup -------------------------------------------------------------

    def load(
        self, workload: str, trace_length: int, seed: int
    ) -> tuple[Program, Trace] | None:
        """The cached (program, trace) pair, or ``None`` on any miss.

        A corrupt or partially-deleted entry is a miss: simulation
        correctness never depends on cache contents, so the only sane
        response to damage is to regenerate.
        """
        if self.root is None or self._disabled:
            return None
        entry = self.entry_dir(workload, trace_length, seed)
        try:
            with open(entry / _PROGRAM_FILE, "rb") as fh:
                program = pickle.load(fh)
            trace = load_trace(entry / _TRACE_FILE)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, TraceError):
            # AttributeError/ImportError: pickles from an older code
            # revision whose classes moved; treat as stale, not fatal.
            return None
        if not isinstance(program, Program) or program.name != workload:
            return None
        if trace.program_name != workload or trace.seed != seed:
            return None
        if trace.n_instructions < trace_length:
            return None
        return program, trace

    # -- store --------------------------------------------------------------

    def store(
        self, workload: str, trace_length: int, seed: int,
        program: Program, trace: Trace,
    ) -> None:
        """Persist *program* and *trace* under their key (atomic).

        OS-level write failures (disk full, read-only directory) degrade
        gracefully: a warning is emitted, ``store_failures`` is counted,
        and the cache is disabled for the remainder of the run — the
        sweep itself continues uncached rather than aborting.
        """
        if self.root is None or self._disabled:
            return
        try:
            entry = self.entry_dir(workload, trace_length, seed)
            entry.mkdir(parents=True, exist_ok=True)
            _atomic_write(
                entry / _PROGRAM_FILE, pickle.dumps(program, protocol=4)
            )
            # The suffix must end in ".npz" or np.savez would append one
            # and write to a different path than the one we rename.
            fd, tmp = tempfile.mkstemp(dir=entry, suffix=".tmp.npz")
            try:
                os.close(fd)
                save_trace(trace, tmp)
                os.replace(tmp, entry / _TRACE_FILE)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            self.store_failures += 1
            self._disabled = True
            warnings.warn(
                f"artifact cache disabled for this run: storing "
                f"{workload!r} failed: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- prediction streams ---------------------------------------------------

    def stream_dir(
        self, workload: str, trace_length: int, seed: int, digest: str
    ) -> Path:
        """Directory holding one recorded prediction stream (may not exist).

        Lives inside the (workload, trace_length, seed) entry so trace
        invalidation sweeps its streams along; the stream format version
        and branch-config digest complete the key.
        """
        return self.entry_dir(workload, trace_length, seed) / (
            f"stream-f{STREAM_FORMAT_VERSION}-{digest}"
        )

    def load_stream(
        self,
        workload: str,
        trace_length: int,
        seed: int,
        digest: str,
        mmap: bool = False,
    ) -> PredictionStream | None:
        """The cached prediction stream, or ``None`` on any miss.

        Corruption (truncated arrays, bad metadata, mismatched identity)
        is a miss — the stream is rebuilt, never trusted.  ``mmap=True``
        maps the arrays read-only (zero-copy for parallel workers).
        """
        if self.root is None or self._disabled:
            return None
        directory = self.stream_dir(workload, trace_length, seed, digest)
        try:
            stream = PredictionStream.load(directory, mmap=mmap)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if (
            stream.program_name != workload
            or stream.trace_seed != seed
            or stream.digest != digest
            or stream.trace_instructions < trace_length
        ):
            return None
        return stream

    def store_stream(
        self,
        workload: str,
        trace_length: int,
        seed: int,
        stream: PredictionStream,
    ) -> None:
        """Persist *stream* under its key (atomic; failures degrade).

        Same failure policy as :meth:`store`: an OS-level error counts a
        store failure and disables the cache for the rest of the run.
        """
        if self.root is None or self._disabled:
            return
        try:
            directory = self.stream_dir(workload, trace_length, seed, stream.digest)
            stream.save(directory)
        except OSError as exc:
            self.store_failures += 1
            self._disabled = True
            warnings.warn(
                f"artifact cache disabled for this run: storing stream for "
                f"{workload!r} failed: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- maintenance ----------------------------------------------------------

    def prune(self) -> PruneStats:
        """Delete entries no current reader can ever hit.

        Reclaims three kinds of garbage that otherwise grow without
        bound across code revisions:

        * version trees other than ``v<CACHE_FORMAT_VERSION>``;
        * entry directories keyed by a different ``GENERATOR_VERSION``
          (plus unrecognised entry names — debris from older layouts);
        * stream subdirectories with a different ``STREAM_FORMAT_VERSION``.

        Current-format entries are untouched.  Deletion errors are
        swallowed (concurrent access, permissions): prune is best-effort
        housekeeping, never correctness.
        """
        stats = PruneStats()
        if self.root is None or not self.root.is_dir():
            return stats
        current = f"v{CACHE_FORMAT_VERSION}"
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir() or not version_dir.name.startswith("v"):
                continue
            if version_dir.name != current:
                self._prune_tree(version_dir, stats)
                continue
            for workload_dir in sorted(version_dir.iterdir()):
                if not workload_dir.is_dir():
                    continue
                for entry in sorted(workload_dir.iterdir()):
                    if not entry.is_dir():
                        continue
                    match = _ENTRY_KEY_RE.match(entry.name)
                    if match is None or int(match.group(1)) != GENERATOR_VERSION:
                        self._prune_tree(entry, stats)
                        continue
                    for sub in sorted(entry.iterdir()):
                        if not sub.is_dir():
                            continue
                        stream_match = _STREAM_DIR_RE.match(sub.name)
                        if stream_match is not None and (
                            int(stream_match.group(1)) != STREAM_FORMAT_VERSION
                        ):
                            self._prune_tree(sub, stats)
        return stats

    @staticmethod
    def _prune_tree(path: Path, stats: PruneStats) -> None:
        """Remove one stale tree, accumulating its size into *stats*."""
        freed = 0
        with contextlib.suppress(OSError):
            for dirpath, _dirnames, filenames in os.walk(path):
                for filename in filenames:
                    with contextlib.suppress(OSError):
                        freed += os.path.getsize(os.path.join(dirpath, filename))
        shutil.rmtree(path, ignore_errors=True)
        stats.entries += 1
        stats.bytes_freed += freed


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write *payload* to *path* via a same-directory temp file + rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise

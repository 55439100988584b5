"""Line-protocol adapter for out-of-process classifiers.

Protocol, bit-exact: the adapter writes one request per classify call,
the window's words joined by single spaces plus LF, UTF-8.  The child
answers one line of space-joined label characters (``0 . , ? : -``), one
per word, in request order, and must flush after each line.
"""

from __future__ import annotations

import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass
from typing import IO, Sequence

from .errors import (
    AdapterTimeoutError,
    EmptyWindowError,
    ProcessDiedError,
    ProtocolLabelError,
    ProtocolLengthError,
)
from .sepp import PunctLabel, label_from_char


@dataclass(frozen=True)
class ExternalAdapterConfig:
    """How to spawn and talk to an external classifier process."""

    command: str
    timeout: float = 30.0
    max_restarts: int = 1
    max_window_words: int | None = 200

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.max_window_words is not None and self.max_window_words < 1:
            raise ValueError("max_window_words must be at least 1")


def _pump(stdout: IO[str], lines: "queue.Queue[str | None]") -> None:
    """Queue the child's lines, then None at EOF; the pipe is closed on the way out."""
    with stdout:
        for line in stdout:
            lines.put(line)
    lines.put(None)


class ExternalClassifier:
    """Owns one child process and serializes requests to it."""

    name = "external"

    def __init__(self, config: ExternalAdapterConfig):
        self.config = config
        self._proc: subprocess.Popen | None = None
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._pump_thread: threading.Thread | None = None

    @property
    def max_window_words(self) -> int | None:
        return self.config.max_window_words

    def _spawn(self) -> None:
        self._lines = queue.Queue()
        self._proc = subprocess.Popen(
            shlex.split(self.config.command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            bufsize=1,
        )
        self._pump_thread = threading.Thread(
            target=_pump, args=(self._proc.stdout, self._lines), daemon=True
        )
        self._pump_thread.start()

    def _kill(self) -> None:
        """Stop the child, let the pump read its stdout to EOF, and close its stdin."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.kill()
            proc.wait(timeout=5)
        except OSError:
            pass
        self._pump_thread.join(timeout=5)
        try:
            proc.stdin.close()
        except OSError:  # unsent request bytes meet a closed pipe
            pass

    def close(self) -> None:
        self._kill()

    def __enter__(self) -> "ExternalClassifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    def classify(self, window: Sequence[str]) -> list[PunctLabel]:
        if not window:
            raise EmptyWindowError("classify needs at least one word")
        joined = " ".join(window)
        if joined.split() != list(window):
            bad = next(word for word in window if word.split() != [word])
            raise ValueError(f"word {bad!r} cannot cross the line protocol")
        request = joined + "\n"

        restarts = 0
        while True:
            if self._proc is not None and self._proc.poll() is not None:
                self._kill()
            if self._proc is None:
                self._spawn()
            try:
                self._proc.stdin.write(request)
                self._proc.stdin.flush()
            except OSError:  # includes BrokenPipeError: the child is gone
                line = None
            else:
                try:
                    line = self._lines.get(timeout=self.config.timeout)
                except queue.Empty:
                    self._kill()
                    raise AdapterTimeoutError(
                        f"no response within {self.config.timeout}s"
                    ) from None
            if line is not None:
                break
            self._kill()
            restarts += 1
            if restarts > self.config.max_restarts:
                raise ProcessDiedError(
                    f"child died {restarts} time(s); restart budget exhausted"
                )
        try:
            return _parse_response(line, len(window))
        except (ProtocolLengthError, ProtocolLabelError):
            # Lines the child wrote beyond its answer would be read as the next answer.
            self._kill()
            raise


def _parse_response(line: str, expected: int) -> list[PunctLabel]:
    parts = line.rstrip("\n").rstrip("\r").split(" ")
    if len(parts) != expected:
        raise ProtocolLengthError(f"got {len(parts)} labels for {expected} words")
    labels: list[PunctLabel] = []
    for part in parts:
        try:
            labels.append(label_from_char(part))
        except KeyError:
            raise ProtocolLabelError(f"unknown label {part!r} in response") from None
    return labels

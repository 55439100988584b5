"""Line-protocol adapter for out-of-process classifiers.

Protocol, bit-exact: the adapter writes one request per window, the
window's words joined by single spaces plus LF, UTF-8.  The child
answers one UTF-8 line of space-joined label characters (``0 . , ? : -``),
one per word, in request order, and must flush after each line.  LF is
the only line end, and one CR right before it is tolerated; a reply that
is not UTF-8 or holds another CR is a protocol error.  Up to
``_IN_FLIGHT`` requests may be written before the first of them is
answered, so a child may read several lines and answer them as a batch;
it may also be sent requests whose replies are thrown away.  The calling
thread writes requests and waits for replies with ``select.poll`` under
one deadline per reply: POSIX pipes only.
"""

from __future__ import annotations

import os
import select
import shlex
import shutil
import subprocess
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import filterfalse
from numbers import Real
from typing import Iterable, Iterator, Sequence

from .errors import (
    AdapterTimeoutError,
    ConfigError,
    EmptyWindowError,
    ProcessDiedError,
    ProtocolLabelError,
    ProtocolLengthError,
    require_int,
)
from .sepp import LABEL_BY_CHAR, PunctLabel

#: Requests in flight at most, counting the one whose reply is awaited.  Of
#: 4, 8 and 16, 8 gave the best median ``segment_external`` throughput on 2
#: CPUs, all three within run-to-run noise of each other (see CHANGES.md).
_IN_FLIGHT = 8

#: The longest ``timeout`` in seconds, below ``select.poll``'s 2**31 - 1 ms by more than rounding.
_MAX_TIMEOUT = 2_147_483

#: Child restarts one ``classify`` call may make before it gives up.
_MAX_RESTARTS = 1

#: Words known to cross the protocol: each distinct word is checked once,
#: not once per window that covers it.  Bounded like the feature-id memo.
_CROSSING_MAX = 1 << 16
_CROSSING: set[str] = set()


@dataclass(frozen=True)
class ExternalAdapterConfig:
    """How to spawn and talk to an external classifier process."""

    command: str
    timeout: float = 30.0
    max_window_words: int | None = 200
    argv: tuple[str, ...] = field(init=False, repr=False)  # ``command`` split as a shell would

    def __post_init__(self) -> None:
        if not isinstance(self.command, str):
            raise ConfigError(f"external command must be a str, not {self.command!r}")
        if isinstance(self.timeout, bool) or not isinstance(self.timeout, Real):
            raise ConfigError(f"timeout must be a real number, not {self.timeout!r}")
        if not 0 < self.timeout <= _MAX_TIMEOUT:  # false for NaN as well
            raise ConfigError(f"timeout must lie in (0, {_MAX_TIMEOUT}] s, not {self.timeout!r}")
        if self.max_window_words is not None:
            require_int("max_window_words", self.max_window_words)
            if self.max_window_words < 1:
                raise ConfigError("max_window_words must be at least 1")
        try:
            argv = shlex.split(self.command)
        except ValueError as exc:
            raise ConfigError(f"external command {self.command!r}: {exc}") from None
        if not argv:
            raise ConfigError("external command is empty")
        object.__setattr__(self, "argv", tuple(argv))


class ExternalClassifier:
    """Owns one child process and keeps up to ``_IN_FLIGHT`` requests in flight to it.

    ``expect`` announces the windows of the next ``classify`` calls, so
    each call can write the requests of the windows after its own before
    it waits, and the child can answer while the caller votes.  Replies
    still come back in request order, one per request.
    """

    name = "external"

    def __init__(self, config: ExternalAdapterConfig):
        self.config = config
        self.max_window_words = config.max_window_words
        self._proc: subprocess.Popen | None = None
        self._sent: deque[tuple[Sequence[str], bytes]] = deque()  # requests awaiting replies
        self._ahead: Iterator[Sequence[str]] | None = None  # announced windows not yet read
        self._out = b""  # request bytes the child has not taken yet
        self._pending = b""  # what the child wrote past the last reply taken
        # checked after the attributes are set, so that ``__del__`` finds them
        if shutil.which(config.argv[0]) is None:
            raise ConfigError(f"external program {config.argv[0]!r} not found")

    def _spawn(self) -> None:
        """Start a child and queue every request still awaiting a reply, in order."""
        self._proc = subprocess.Popen(
            self.config.argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._out = b"".join(request for _, request in self._sent)
        self._pending = b""

    def _kill(self) -> None:
        """Stop the child and close both its pipes."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.kill()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            proc.stdout.close()
            proc.stdin.close()

    def _write(self) -> None:
        """Write what the child's stdin pipe takes now of the queued request bytes."""
        try:
            written = os.write(self._proc.stdin.fileno(), self._out)
        except BlockingIOError:
            return
        except OSError:  # the child closed its stdin; its stdout's EOF ends the wait
            written = len(self._out)
        self._out = self._out[written:]

    def _read_reply(self) -> bytes | None:
        """The child's next line without its LF; None at EOF with nothing pending.

        Queued request bytes go out as the child's stdin takes them, under
        the same deadline as the reply.
        """
        if self._out:
            self._write()
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        poller = select.poll()
        poller.register(stdout, select.POLLIN)
        if self._out:
            poller.register(stdin, select.POLLOUT)
        deadline = time.monotonic() + self.config.timeout
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            events = poller.poll(left * 1000) if left > 0 else None
            if not events:
                self._kill()
                raise AdapterTimeoutError(f"no response within {self.config.timeout}s")
            for fd, _ in events:
                if fd == stdin:
                    self._write()
                    if not self._out:
                        poller.unregister(stdin)
                    continue
                chunk = os.read(stdout, 1 << 16)
                if not chunk and not self._pending:
                    return None
                self._pending += chunk or b"\n"  # EOF: an unterminated tail is the last reply
        reply, _, self._pending = self._pending.partition(b"\n")
        return reply

    def close(self) -> None:
        self._kill()
        self._sent.clear()
        self._ahead = None

    def __enter__(self) -> "ExternalClassifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    def expect(self, windows: Iterable[Sequence[str]]) -> None:
        """Announce that the next ``classify`` calls will be for ``windows``, in order.

        ``windows`` is read lazily, no further than the requests in flight reach.
        """
        self._ahead = iter(windows)

    def classify(self, window: Sequence[str]) -> list[PunctLabel]:
        sent = self._sent
        if not sent or sent[0][0] != window:
            request = _request(window)
            if sent:  # the requests in flight are for other windows
                self._kill()
                sent.clear()
            if self._ahead is not None and next(self._ahead, None) != window:
                self._ahead = None
            sent.append((window, request))
            self._out += request
        while len(sent) < _IN_FLIGHT and self._ahead is not None:
            ahead = next(self._ahead, None)
            if ahead is None:
                self._ahead = None
                break
            try:
                ahead_request = _request(ahead)
            except Exception:  # its own call builds the request again and raises
                self._ahead = None
                break
            sent.append((ahead, ahead_request))
            self._out += ahead_request

        restarts = 0
        while True:
            if self._proc is not None and self._proc.poll() is not None:
                self._kill()
            if self._proc is None:
                self._spawn()
            line = self._read_reply()
            if line is not None:
                break
            self._kill()
            restarts += 1
            if restarts > _MAX_RESTARTS:
                raise ProcessDiedError(
                    f"child died {restarts} time(s); restart budget exhausted"
                )
        sent.popleft()
        try:
            return _parse_response(line, len(window))
        except (ProtocolLengthError, ProtocolLabelError):
            # Lines the child wrote beyond its answer would be read as the next answer.
            self._kill()
            raise


def _request(window: Sequence[str]) -> bytes:
    """The request line for ``window``.

    EmptyWindowError when it has no words, ValueError when a word cannot
    cross the protocol.  Only words not yet in ``_CROSSING`` are checked,
    and a window's words join it only once its request is encoded.
    """
    if not window:
        raise EmptyWindowError("classify needs at least one word")
    joined = " ".join(window)
    new = () if _CROSSING.issuperset(window) else list(filterfalse(_CROSSING.__contains__, window))
    for word in new:
        if word.split() != [word]:
            raise ValueError(f"word {word!r} cannot cross the line protocol")
    request = (joined + "\n").encode("utf-8")
    if new:
        if len(_CROSSING) + len(new) > _CROSSING_MAX:
            _CROSSING.clear()
        if len(new) <= _CROSSING_MAX:
            _CROSSING.update(new)
    return request


def _parse_response(line: bytes, expected: int) -> list[PunctLabel]:
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolLabelError("response is not UTF-8") from None
    parts = text.removesuffix("\r").split(" ")
    if len(parts) != expected:
        raise ProtocolLengthError(f"got {len(parts)} labels for {expected} words")
    try:
        return list(map(LABEL_BY_CHAR.__getitem__, parts))
    except KeyError as exc:
        raise ProtocolLabelError(f"unknown label {exc.args[0]!r} in response") from None

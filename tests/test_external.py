import gc
import math
import os
import select
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import pytest

from puncseg import external
from puncseg.errors import (
    AdapterTimeoutError,
    ConfigError,
    EmptyWindowError,
    ProcessDiedError,
    ProtocolLabelError,
    ProtocolLengthError,
    WindowClassifyError,
)
from puncseg.external import ExternalAdapterConfig, ExternalClassifier
from puncseg.segmenter import SegmenterConfig, classify_chunked, segment
from puncseg.sepp import PunctLabel

# A pipe or child left open by the adapter fails the test that leaked it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

N = PunctLabel.NONE
P = PunctLabel.PERIOD


def _stub(tmp_path, name, body):
    script = tmp_path / f"{name}.py"
    script.write_text(textwrap.dedent(body), encoding="utf-8")
    return f"{sys.executable} {script}"


@pytest.fixture
def echo_period(tmp_path):
    return _stub(
        tmp_path,
        "echo_period",
        """
        import sys
        for line in sys.stdin:
            labels = ["0"] * len(line.split())
            labels[-1] = "."
            print(" ".join(labels), flush=True)
        """,
    )


def test_echo_stub_round_trip(echo_period):
    with ExternalClassifier(ExternalAdapterConfig(echo_period, timeout=10)) as clf:
        assert clf.classify(["kijk", "om", "je", "heen"]) == [N, N, N, P]


def test_requests_answered_in_order(tmp_path):
    cmd = _stub(
        tmp_path,
        "first_char",
        """
        import sys
        for line in sys.stdin:
            out = ["." if w.startswith("p") else "0" for w in line.split()]
            print(" ".join(out), flush=True)
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        assert clf.classify(["punt", "hier"]) == [P, N]
        assert clf.classify(["nee"]) == [N]
        assert clf.classify(["ook", "punt"]) == [N, P]


def test_length_mismatch_detected(tmp_path):
    cmd = _stub(
        tmp_path,
        "short",
        """
        import sys
        for line in sys.stdin:
            n = len(line.split()) - 1
            print(" ".join(["0"] * n), flush=True)
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        with pytest.raises(ProtocolLengthError):
            clf.classify(["a", "b", "c", "d"])


def test_bad_label_detected(tmp_path):
    cmd = _stub(
        tmp_path,
        "bad_label",
        """
        import sys
        for line in sys.stdin:
            labels = ["0"] * len(line.split())
            labels[-1] = ";"
            print(" ".join(labels), flush=True)
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        with pytest.raises(ProtocolLabelError):
            clf.classify(["a", "b", "c", "d"])


def test_timeout_raises(tmp_path):
    cmd = _stub(
        tmp_path,
        "sleepy",
        """
        import sys, time
        sys.stdin.readline()
        time.sleep(600)
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=0.5)) as clf:
        with pytest.raises(AdapterTimeoutError):
            clf.classify(["a", "b"])


def test_dead_child_exhausts_restart_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(external, "_MAX_RESTARTS", 2)
    cmd = _stub(tmp_path, "dies", "import sys; sys.exit(3)")
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=5)) as clf:
        with pytest.raises(ProcessDiedError):
            clf.classify(["a"])


def test_restart_resends_request(tmp_path, monkeypatch):
    # Child answers one request per life; the second call needs a restart.
    monkeypatch.setattr(external, "_MAX_RESTARTS", 1)
    marker = tmp_path / "lives"
    cmd = _stub(
        tmp_path,
        "one_shot",
        f"""
        import pathlib, sys
        marker = pathlib.Path({str(marker)!r})
        marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
        line = sys.stdin.readline()
        print(" ".join(["0"] * len(line.split())), flush=True)
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        assert clf.classify(["een", "twee"]) == [N, N]
        assert clf.classify(["drie"]) == [N]
    assert marker.read_text() == "xx"


@pytest.mark.parametrize(
    "first_answer, error",
    [("0", ProtocolLengthError), ("0 ;", ProtocolLabelError)],
)
def test_protocol_violation_restarts_child(tmp_path, first_answer, error):
    # The bad answer to "a b" is followed by an extra line; a child kept
    # alive would serve that line as the answer to the next request.
    cmd = _stub(
        tmp_path,
        "extra_line",
        f"""
        import sys
        for line in sys.stdin:
            if line.split() == ["a", "b"]:
                print({first_answer!r}, flush=True)
                print(". .", flush=True)
            else:
                print(" ".join(["0"] * len(line.split())), flush=True)
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        with pytest.raises(error):
            clf.classify(["a", "b"])
        assert clf.classify(["c", "d"]) == [N, N]


def _open_fds():
    """How many file descriptors this process holds; None where /proc/self/fd is absent."""
    fd_dir = Path("/proc/self/fd")
    return len(os.listdir(fd_dir)) if fd_dir.is_dir() else None


def test_killed_and_replaced_children_leave_no_open_pipes(tmp_path):
    cmd = _stub(
        tmp_path,
        "moody",
        """
        import sys, time
        for line in sys.stdin:
            words = line.split()
            if words == ["slow"]:
                time.sleep(600)
            if words == ["crash"]:
                sys.exit(1)
            print(" ".join(["0"] * len(words)), flush=True)
            if words == ["bye"]:
                sys.exit(0)
        """,
    )
    fds_before = _open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=0.5)) as clf:
            with pytest.raises(AdapterTimeoutError):
                clf.classify(["slow"])  # the stuck child is killed
            with pytest.raises(ProcessDiedError):
                clf.classify(["crash"])  # it and its restart die without answering
            assert clf.classify(["bye"]) == [N]
            clf._proc.wait(timeout=5)
            assert clf.classify(["weer"]) == [N]  # poll() finds it dead: replaced
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks
    assert _open_fds() == fds_before  # a leaked selector fd raises no ResourceWarning


def test_non_utf8_reply_is_protocol_error_and_restarts_child(tmp_path):
    cmd = _stub(
        tmp_path,
        "latin1",
        """
        import sys
        for line in sys.stdin:
            words = line.split()
            reply = " ".join(["0"] * len(words)).encode()
            if words == ["slecht"]:
                reply = b"\\xe9"  # é in Latin-1
            sys.stdout.buffer.write(reply + b"\\n")
            sys.stdout.flush()
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=30)) as clf:
        assert clf.classify(["goed"]) == [N]
        first_pid = clf._proc.pid
        started = time.monotonic()
        with pytest.raises(ProtocolLabelError):
            clf.classify(["slecht"])
        assert time.monotonic() - started < 5
        assert clf.classify(["goed"]) == [N]
        assert clf._proc.pid != first_pid


def test_mid_line_cr_is_not_a_line_end(tmp_path):
    # Read as a line end, the CR would answer "a" with "0" and leave ". ."
    # to be served as the answer to the next request.
    cmd = _stub(
        tmp_path,
        "mid_cr",
        """
        import sys
        for line in sys.stdin:
            words = line.split()
            print("0\\r. ." if words == ["a"] else " ".join(["0"] * len(words)), flush=True)
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        with pytest.raises(ProtocolLengthError):
            clf.classify(["a"])
        assert clf.classify(["b", "c"]) == [N, N]


def test_crlf_reply_accepted(tmp_path):
    cmd = _stub(
        tmp_path,
        "crlf",
        """
        import sys
        for line in sys.stdin:
            sys.stdout.write(" ".join(["0"] * len(line.split())) + "\\r\\n")
            sys.stdout.flush()
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        assert clf.classify(["a", "b"]) == [N, N]
        assert clf.classify(["c"]) == [N]


def test_reply_written_in_two_pieces_is_assembled(tmp_path):
    cmd = _stub(
        tmp_path,
        "halting",
        """
        import sys, time
        for line in sys.stdin:
            sys.stdout.write("0 ")
            sys.stdout.flush()
            time.sleep(0.2)
            sys.stdout.write(".\\n")
            sys.stdout.flush()
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        assert clf.classify(["een", "twee"]) == [N, P]
        assert clf.classify(["drie", "vier"]) == [N, P]


def test_unterminated_reply_before_exit_accepted(tmp_path):
    cmd = _stub(
        tmp_path,
        "no_lf",
        """
        import sys
        sys.stdin.readline()
        sys.stdout.write("0 .")
        """,
    )
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        assert clf.classify(["een", "twee"]) == [N, P]
        assert clf.classify(["drie", "vier"]) == [N, P]  # a new child for the next call


def test_adapter_starts_no_thread(echo_period):
    threads_before = threading.active_count()
    clf = ExternalClassifier(ExternalAdapterConfig(echo_period, timeout=10))
    assert clf.classify(["kijk", "om"]) == [N, P]
    assert threading.active_count() == threads_before
    clf.close()
    assert threading.active_count() == threads_before


def test_empty_window_rejected(echo_period):
    with ExternalClassifier(ExternalAdapterConfig(echo_period)) as clf:
        with pytest.raises(EmptyWindowError):
            clf.classify([])


def test_words_with_spaces_rejected(echo_period):
    with ExternalClassifier(ExternalAdapterConfig(echo_period)) as clf:
        for word in ["twee woorden", "a\rx", "a\x0bx", "a\xa0x", ""]:
            with pytest.raises(ValueError):
                clf.classify(["goed", word])


def test_config_validation():
    with pytest.raises(ValueError):
        ExternalAdapterConfig("cmd", timeout=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout", float("nan")),  # would time every call out at once
        ("timeout", float("inf")),  # these three overflow select.poll's int of ms
        ("timeout", 1e300),
        ("timeout", 2**31 / 1000),
        ("timeout", "30"),
        ("timeout", True),
        ("command", None),  # shlex.split(None) would read the command from stdin
        ("command", ["cmd"]),
        ("max_window_words", "5"),
        ("max_window_words", 2.5),
        ("max_window_words", True),
    ],
)
def test_a_bad_field_is_a_config_error_before_any_child_starts(field, value):
    with pytest.raises(ConfigError) as exc_info:
        ExternalAdapterConfig(**{"command": "cmd", field: value})
    assert exc_info.value.code == "CONFIG"


def test_the_longest_timeout_is_accepted_and_fits_poll():
    assert ExternalAdapterConfig("cmd", timeout=external._MAX_TIMEOUT).timeout == external._MAX_TIMEOUT
    with pytest.raises(ConfigError):
        ExternalAdapterConfig("cmd", timeout=math.nextafter(external._MAX_TIMEOUT, math.inf))
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, b"x")  # already readable, so poll returns at once
        poller = select.poll()
        poller.register(read_fd, select.POLLIN)
        assert poller.poll(external._MAX_TIMEOUT * 1000) == [(read_fd, select.POLLIN)]
    finally:
        os.close(read_fd)
        os.close(write_fd)


@pytest.mark.parametrize("limit", [0, -3])
def test_max_window_words_below_one_rejected(limit):
    with pytest.raises(ValueError):
        ExternalAdapterConfig("cmd", max_window_words=limit)
    assert ExternalAdapterConfig("cmd", max_window_words=None).max_window_words is None
    assert ExternalAdapterConfig("cmd", max_window_words=1).max_window_words == 1


@pytest.mark.parametrize(
    "command, program",
    [("no-such-program-xyz", "no-such-program-xyz"), ("./no-such-xyz --flag", "./no-such-xyz")],
)
def test_a_program_not_on_path_is_a_config_error_at_construction(command, program):
    with pytest.raises(ConfigError) as exc_info:
        ExternalClassifier(ExternalAdapterConfig(command))
    assert exc_info.value.code == "CONFIG"
    assert str(exc_info.value) == f"external program {program!r} not found"
    del exc_info  # its traceback holds the half-built object, whose ``__del__`` must stay quiet
    gc.collect()


# Requests in flight: ``expect`` announces the windows of the next calls,
# and each call writes up to ``_IN_FLIGHT`` requests before it waits.

# Labels every word by its first letter, so each window's reply is known.
_FIRST_LETTER = """
    import sys
    for line in sys.stdin:
        print(" ".join("." if w.startswith("p") else "0" for w in line.split()), flush=True)
    """


def _rule(words):
    return [P if w.startswith("p") else N for w in words]


def _stream(n):
    return [("p" if i % 7 == 3 else "w") + str(i) for i in range(n)]


def _record_popen(monkeypatch):
    procs = []
    real = external.subprocess.Popen

    def popen(*args, **kwargs):
        proc = real(*args, **kwargs)
        procs.append(proc)
        return proc

    monkeypatch.setattr(external.subprocess, "Popen", popen)
    return procs


def test_child_that_stops_reading_times_out_on_a_large_request(tmp_path, monkeypatch):
    # 40,000 words fill the stdin pipe long before the request is written.
    cmd = _stub(tmp_path, "no_reader", "import time; time.sleep(600)")
    procs = _record_popen(monkeypatch)
    words = [f"w{i}" for i in range(40_000)]
    config = ExternalAdapterConfig(cmd, timeout=0.5, max_window_words=None)
    with ExternalClassifier(config) as clf:
        started = time.monotonic()
        with pytest.raises(AdapterTimeoutError):
            clf.classify(words)
        assert time.monotonic() - started < 5
        [proc] = procs
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed


# A request larger than the 64 KiB a pipe holds goes out in parts as the
# child reads: 40,000 words make about 270 KB.  This child sleeps ``before``
# seconds before it starts reading and before each answer, and ``after``
# seconds after each answer.
_ONE_AT_A_TIME = """
    import sys, time
    time.sleep({before})
    for line in sys.stdin:
        time.sleep({before})
        print(" ".join("." if w.startswith("p") else "0" for w in line.split()), flush=True)
        time.sleep({after})
    """


def test_request_larger_than_the_pipe_reaches_a_child_that_starts_reading_late(tmp_path):
    cmd = _stub(tmp_path, "late_reader", _ONE_AT_A_TIME.format(before=0.2, after=0))
    words = _stream(40_000)
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10, max_window_words=None)) as clf:
        assert clf.classify(words) == _rule(words)


def test_announced_call_that_starts_on_a_full_pipe_gets_its_labels(tmp_path):
    # While the child works on the first request the adapter fills the pipe
    # with the second, and the second call begins before the child reads on.
    cmd = _stub(tmp_path, "one_at_a_time", _ONE_AT_A_TIME.format(before=0.2, after=0.2))
    first = _stream(40_000)
    second = [w + "x" for w in first]
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10, max_window_words=None)) as clf:
        clf.expect([first, second])
        assert clf.classify(first) == _rule(first)
        assert clf.classify(second) == _rule(second)


def test_child_that_closes_its_stdin_mid_request_is_restarted(tmp_path):
    lives = tmp_path / "lives"
    cmd = _stub(
        tmp_path,
        "closes_stdin",
        f"""
        import os, pathlib, sys, time
        lives = pathlib.Path({str(lives)!r})
        lives.write_text(lives.read_text() + "x" if lives.exists() else "x")
        if lives.read_text() == "x":
            os.read(0, 1 << 16)
            os.close(0)
            time.sleep(0.3)  # stdout stays open: the adapter's next write fails first
            sys.exit(0)
        for line in sys.stdin:
            print(" ".join("." if w.startswith("p") else "0" for w in line.split()), flush=True)
        """,
    )
    words = _stream(40_000)
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10, max_window_words=None)) as clf:
        assert clf.classify(words) == _rule(words)
    assert lives.read_text() == "xx"


def test_child_reading_in_batches_gets_several_requests_per_batch(tmp_path):
    batches = tmp_path / "batches"
    cmd = _stub(
        tmp_path,
        "batching",
        f"""
        import os, sys, time
        pending = b""
        count = 0
        while True:
            chunk = os.read(0, 1 << 16)
            if not chunk:
                break
            pending += chunk
            *lines, pending = pending.split(b"\\n")
            if not lines:
                continue
            time.sleep(0.05)  # one fixed cost per batch, as a batched forward pass
            count += 1
            with open({str(batches)!r}, "a") as log:
                log.write(f"{{count}}\\n")
            for line in lines:
                words = line.decode().split()
                sys.stdout.write(" ".join("." if w.startswith("p") else "0" for w in words) + "\\n")
            sys.stdout.flush()
        """,
    )
    stream = _stream(49)
    cfg = SegmenterConfig(window_words=10)  # 40 windows
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        result = segment(stream, clf, cfg)
    assert result.labels == _rule(stream)
    n_batches = len(batches.read_text().splitlines())
    assert n_batches <= 40 // 2


def test_windows_other_than_the_announced_ones_get_their_own_labels(tmp_path):
    cmd = _stub(tmp_path, "first_letter", _FIRST_LETTER)
    announced = [["p1", "a"], ["b", "p2"], ["c"], ["p3"], ["d", "e", "p4"]]
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        clf.expect(announced)
        assert clf.classify(["x", "py"]) == [N, P]  # not the first announced window
        assert clf.classify(announced[1]) == _rule(announced[1])
        clf.expect(announced)
        assert clf.classify(announced[0]) == _rule(announced[0])
        assert clf.classify(announced[2]) == _rule(announced[2])  # one skipped
        assert clf.classify(announced[1]) == _rule(announced[1])  # and back
        assert clf.classify(["q", "p"]) == [N, P]


def test_announcements_are_read_no_further_than_the_requests_in_flight(tmp_path):
    cmd = _stub(tmp_path, "first_letter", _FIRST_LETTER)
    wins = [[f"w{i}", f"p{i}"] if i % 3 else [f"p{i}"] for i in range(40)]
    calls = []  # the windows asked for, in order
    reads = []  # per window read from the announcement: the index of the call reading it

    def announce():
        for window in wins:
            reads.append(len(calls) - 1)
            yield window

    config = ExternalAdapterConfig(cmd, timeout=10)
    asked = wins[:20] + [["x", "py"]] + wins[21:25]  # window 20 is not the one announced
    with ExternalClassifier(config) as clf:
        clf.expect(announce())
        labels = []
        for window in asked:
            calls.append(window)
            labels.append(clf.classify(window))
            if len(calls) == 21:
                read_by_unannounced = len(reads)
        assert clf._ahead is None
    assert len(reads) == read_by_unannounced < len(wins)  # nothing read after window 20
    assert max(j - call for j, call in enumerate(reads)) == external._IN_FLIGHT - 1
    with ExternalClassifier(config) as unannounced:
        assert labels == [unannounced.classify(window) for window in asked]
    assert labels == [_rule(window) for window in asked]


# Appends every request line it reads, as bytes, to a log before it answers.
_LOGGING = """
    import sys
    with open({log!r}, "ab") as log:
        for line in sys.stdin.buffer:
            log.write(line)
            log.flush()
            words = line.decode("utf-8").split()
            print(" ".join("." if w.startswith("p") else "0" for w in words), flush=True)
    """


class _Recording:
    """Forwards to the adapter, ``expect`` included, and records the words of each call."""

    name = "external"

    def __init__(self, inner):
        self._inner = inner
        self.max_window_words = inner.max_window_words
        self.announced = 0
        self.asked = []

    def expect(self, windows):
        self.announced += 1
        self._inner.expect(windows)

    def classify(self, window):
        self.asked.append(list(window))
        return self._inner.classify(window)


@pytest.mark.parametrize("path", ["segment", "classify_chunked"])
def test_child_reads_each_call_request_once_in_call_order(tmp_path, path):
    log = tmp_path / "requests"
    cmd = _stub(tmp_path, "logging", _LOGGING.format(log=str(log)))
    stream = _stream(61)
    stream[5] = "één"
    config = ExternalAdapterConfig(cmd, timeout=10, max_window_words=4)
    with ExternalClassifier(config) as clf:
        recording = _Recording(clf)
        if path == "segment":
            segment(stream, recording, SegmenterConfig(window_words=10, stride=3))
        else:
            assert classify_chunked(recording, stream, 200) == _rule(stream)
    assert recording.announced == 1
    assert max(map(len, recording.asked)) == 4
    expected = b"".join((" ".join(words) + "\n").encode("utf-8") for words in recording.asked)
    assert log.read_bytes() == expected


def test_restarts_resend_unanswered_requests_in_order(tmp_path, monkeypatch):
    # Each life answers two requests and exits, with more requests in flight.
    monkeypatch.setattr(external, "_MAX_RESTARTS", 1)
    answered = tmp_path / "answered"
    cmd = _stub(
        tmp_path,
        "two_per_life",
        f"""
        import sys
        for _ in range(2):
            line = sys.stdin.readline()
            with open({str(answered)!r}, "a") as log:
                log.write(line)
            print(" ".join("." if w.startswith("p") else "0" for w in line.split()), flush=True)
        """,
    )
    wins = [[f"w{i}", f"p{i}"] if i % 2 else [f"p{i}"] for i in range(11)]
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        clf.expect(wins)
        assert [clf.classify(w) for w in wins] == [_rule(w) for w in wins]
    assert answered.read_text().splitlines() == [" ".join(w) for w in wins]


def test_bad_reply_in_read_ahead_names_its_window_and_next_call_gets_fresh_child(tmp_path):
    cmd = _stub(
        tmp_path,
        "bad_for_w5",
        """
        import sys
        for line in sys.stdin:
            words = line.split()
            n = len(words) - 1 if "w5" in words else len(words)
            print(" ".join(["0"] * n), flush=True)
        """,
    )
    stream = [f"w{i}" for i in range(12)]
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        with pytest.raises(WindowClassifyError) as info:
            segment(stream, clf, SegmenterConfig(window_words=3))
        assert info.value.window_start == 3  # the first window holding w5
        assert isinstance(info.value.__cause__, ProtocolLengthError)
        assert clf._proc is None
        assert clf.classify(["a", "b"]) == [N, N]


class _Unannounced:
    """The adapter without ``expect``: every call is sent on its own."""

    name = "external"

    def __init__(self, inner):
        self._inner = inner
        self.max_window_words = inner.max_window_words

    def classify(self, window):
        return self._inner.classify(window)


def _failures_at_bad_word(tmp_path, bad_word):
    """(window_start, cause type) of segmenting with ``bad_word`` at 17, announced and not."""
    cmd = _stub(tmp_path, "first_letter", _FIRST_LETTER)
    stream = _stream(30)
    stream[17] = bad_word
    cfg = SegmenterConfig(window_words=5)
    failures = []
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        for wrapped in (clf, _Unannounced(clf)):
            with pytest.raises(WindowClassifyError) as info:
                segment(stream, wrapped, cfg)
            failures.append((info.value.window_start, type(info.value.__cause__)))
        assert clf.classify(["p", "q"]) == [P, N]
    return failures


@pytest.mark.parametrize("bad_word", ["twee woorden", "", "nieuwe\nregel"])
def test_word_that_cannot_cross_fails_at_its_own_window_when_announced(tmp_path, bad_word):
    failures = _failures_at_bad_word(tmp_path, bad_word)
    assert failures == [(13, ValueError)] * 2  # rejected before it was sent


def test_word_that_is_not_a_str_fails_at_its_own_window_when_announced(tmp_path):
    # The join raises TypeError, an error of no protocol type: a read-ahead
    # window still leaves it to its own call.
    failures = _failures_at_bad_word(tmp_path, b"x")
    assert failures == [(13, TypeError)] * 2


def test_word_that_cannot_be_encoded_fails_at_its_own_window(tmp_path):
    # A lone surrogate passes str.split() but has no UTF-8 form; the
    # UnicodeEncodeError is a ValueError, as for any word that cannot cross.
    failures = _failures_at_bad_word(tmp_path, "\ud800")
    assert failures == [(13, UnicodeEncodeError)] * 2


def test_classify_chunked_announces_its_chunks(tmp_path):
    cmd = _stub(tmp_path, "first_letter", _FIRST_LETTER)
    words = _stream(23)
    config = ExternalAdapterConfig(cmd, timeout=10, max_window_words=4)
    with ExternalClassifier(config) as clf:
        assert classify_chunked(clf, words, 200) == _rule(words)
        assert not clf._sent and clf._ahead is None


def test_close_with_requests_in_flight_leaves_no_open_fds(tmp_path):
    cmd = _stub(tmp_path, "first_letter", _FIRST_LETTER)
    fds_before = _open_fds()
    clf = ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10))
    wins = [[f"w{i}"] for i in range(20)]
    clf.expect(wins)
    assert clf.classify(wins[0]) == [N]
    assert len(clf._sent) == external._IN_FLIGHT - 1
    clf.close()
    gc.collect()
    assert _open_fds() == fds_before


def test_kill_closes_both_pipes_when_the_child_outlives_its_wait(tmp_path):
    cmd = _stub(tmp_path, "first_letter", _FIRST_LETTER)
    clf = ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10))
    wins = [[f"w{i}"] for i in range(20)]
    clf.expect(wins)
    assert clf.classify(wins[0]) == [N]
    proc = clf._proc

    def wait(timeout=None):
        raise external.subprocess.TimeoutExpired(proc.args, timeout)

    proc.wait = wait
    clf.close()
    assert proc.stdin.closed and proc.stdout.closed
    assert clf._proc is None and not clf._sent and clf._ahead is None
    del proc.wait
    proc.wait(timeout=5)  # reap the killed child


# The crossing memo: each distinct word is checked once, in a bounded set.


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = set()
    monkeypatch.setattr(external, "_CROSSING", memo)
    return memo


def test_memo_never_exceeds_its_bound_and_labels_stay_right(tmp_path, monkeypatch, fresh_memo):
    monkeypatch.setattr(external, "_CROSSING_MAX", 7)
    sizes = []
    real = external._request

    def request(window):
        line = real(window)
        sizes.append(len(fresh_memo))
        return line

    monkeypatch.setattr(external, "_request", request)
    cmd = _stub(tmp_path, "first_letter", _FIRST_LETTER)
    stream = _stream(60)
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10)) as clf:
        assert segment(stream, clf, SegmenterConfig(window_words=5)).labels == _rule(stream)
        long_window = _stream(10)  # more distinct words than the memo holds
        assert clf.classify(long_window) == _rule(long_window)
    assert max(sizes) == 7  # filled to its bound, never past it


@pytest.mark.parametrize("bad_word", ["twee woorden", "\ud800"])
def test_rejected_word_is_never_memoised(echo_period, fresh_memo, bad_word):
    error = ValueError if bad_word.split() != [bad_word] else UnicodeEncodeError
    with ExternalClassifier(ExternalAdapterConfig(echo_period, timeout=10)) as clf:
        for _ in range(2):
            with pytest.raises(error):
                clf.classify(["goed", bad_word])
            assert bad_word not in fresh_memo
        windows = [["een"], ["twee", bad_word], ["drie"]]
        clf.expect(windows)
        assert clf.classify(windows[0]) == [P]
        with pytest.raises(error):
            clf.classify(windows[1])
        assert bad_word not in fresh_memo
        assert clf.classify(windows[2]) == [P]


def test_request_bytes_do_not_depend_on_the_memo(fresh_memo):
    windows = [
        ["één", "café", "x"],  # cold
        ["café", "naïef", "x", "y"],  # partly known
        ["x", "één", "naïef"],  # fully known
    ]
    known = [0, 2, 3]
    for window, before in zip(windows, known):
        assert sum(word in fresh_memo for word in window) == before
        assert external._request(window) == (" ".join(window) + "\n").encode("utf-8")
    assert fresh_memo == {"één", "café", "naïef", "x", "y"}

import gc
import os
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import pytest

from puncseg.errors import (
    AdapterTimeoutError,
    EmptyWindowError,
    ProcessDiedError,
    ProtocolLabelError,
    ProtocolLengthError,
)
from puncseg.external import ExternalAdapterConfig, ExternalClassifier
from puncseg.sepp import PunctLabel

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


def test_dead_child_exhausts_restart_budget(tmp_path):
    cmd = _stub(tmp_path, "dies", "import sys; sys.exit(3)")
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=5, max_restarts=2)) as clf:
        with pytest.raises(ProcessDiedError):
            clf.classify(["a"])


def test_restart_resends_request(tmp_path):
    # Child answers one request per life; the second call needs a restart.
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
    with ExternalClassifier(ExternalAdapterConfig(cmd, timeout=10, max_restarts=1)) as clf:
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
    with pytest.raises(ValueError):
        ExternalAdapterConfig("cmd", max_restarts=-1)


@pytest.mark.parametrize("limit", [0, -3])
def test_max_window_words_below_one_rejected(limit):
    with pytest.raises(ValueError):
        ExternalAdapterConfig("cmd", max_window_words=limit)
    assert ExternalAdapterConfig("cmd", max_window_words=None).max_window_words is None
    assert ExternalAdapterConfig("cmd", max_window_words=1).max_window_words == 1

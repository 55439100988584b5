import gc
import sys
import textwrap
import warnings

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

import pytest

from puncseg.classifier import ReplayClassifier
from puncseg.errors import ConfigError, LengthMismatchError, OutOfRangeError, ToolkitError
from puncseg.external import ExternalAdapterConfig
from puncseg.metrics import split_testfiles
from puncseg.segmenter import SegmenterConfig
from puncseg.sepp import LabeledToken, PunctLabel, SeppDocument
from puncseg.textprep import SplitSpec

ONE_SENTENCE = SeppDocument([LabeledToken("klaar", True, PunctLabel.PERIOD)])


@pytest.mark.parametrize(
    "reject, error, code",
    [
        (lambda: SegmenterConfig(theta=2.0), ConfigError, "CONFIG"),
        (lambda: SplitSpec(unit="page"), ConfigError, "CONFIG"),
        (lambda: ExternalAdapterConfig("cmd", timeout=0), ConfigError, "CONFIG"),
        (lambda: split_testfiles(ONE_SENTENCE, 0), OutOfRangeError, "OUT_OF_RANGE"),
        (lambda: ReplayClassifier(["a", "b"], [PunctLabel.NONE]), LengthMismatchError,
         "LENGTH_MISMATCH"),
    ],
    ids=["segmenter-config", "split-spec", "external-config", "split-testfiles", "replay"],
)
def test_library_argument_errors_are_coded_and_still_value_errors(reject, error, code):
    with pytest.raises(error) as exc_info:
        reject()
    assert isinstance(exc_info.value, ToolkitError)
    assert isinstance(exc_info.value, ValueError)
    assert exc_info.value.code == code

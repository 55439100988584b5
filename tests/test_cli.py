import os
import sys

import pytest

from corpora import template_corpus
from puncseg.cli import main
from puncseg.sepp import (
    LabeledToken,
    PunctLabel,
    SeppDocument,
    parse_sepp,
    write_sepp,
    write_sepp_file,
)
from sample_streams import (
    COPERNICUS_PRED,
    COPERNICUS_SEGMENTS_PERIOD,
    COPERNICUS_WORDS,
    document_for,
)

N = PunctLabel.NONE
P = PunctLabel.PERIOD
C = PunctLabel.COMMA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def copernicus_files(tmp_path):
    stream = tmp_path / "stream.txt"
    stream.write_text(" ".join(COPERNICUS_WORDS) + "\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    write_sepp_file(document_for(COPERNICUS_WORDS, COPERNICUS_PRED), pred)
    return stream, pred


def test_prepare_single_sentence(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("dat was 1543.\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    code, _, err = run(capsys, "prepare", str(raw), "--out", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8") == "dat\t0\t0\nwas\t0\t0\n1543\t1\t.\n"
    assert "tokens: 3" in err


def test_prepare_empty_input_fails(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("\n\n", encoding="utf-8")
    code, _, err = run(capsys, "prepare", str(raw), "--out", str(tmp_path / "out.tsv"))
    assert code != 0
    assert "TOO_FEW_UNITS" in err


def test_prepare_is_deterministic(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("kijk om je heen.\nalles beweegt, alles draait.\n", encoding="utf-8")
    out1 = tmp_path / "one.tsv"
    out2 = tmp_path / "two.tsv"
    assert run(capsys, "prepare", str(raw), "--out", str(out1))[0] == 0
    assert run(capsys, "prepare", str(raw), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_prepare_drops_markup_lines(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("<p>opmaak</p>\necht zinnetje.\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    code, _, err = run(capsys, "prepare", str(raw), "--out", str(out))
    assert code == 0
    assert "sentences: 1" in err


def test_prepare_saves_and_reuses_truecase_model(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("De man liep.\nde man zag de man.\n", encoding="utf-8")
    model = tmp_path / "truecase.tsv"
    out = tmp_path / "out.tsv"
    code, _, _ = run(
        capsys, "prepare", str(raw), "--out", str(out), "--truecase-model", str(model)
    )
    assert code == 0
    assert model.exists()
    first = out.read_text(encoding="utf-8")
    assert first.startswith("de\t0\t0\n")  # sentence-initial "De" truecased down
    # second run loads the saved model and reproduces the output
    code, _, _ = run(
        capsys, "prepare", str(raw), "--out", str(out), "--truecase-model", str(model)
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == first


def test_segment_replay_reproduces_reference_segments(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    code, out, _ = run(
        capsys,
        "segment",
        str(stream),
        "--classifier",
        f"replay:{pred}",
        "--theta",
        "0.1",
        "--segmenters",
        ".",
    )
    assert code == 0
    assert out.splitlines() == COPERNICUS_SEGMENTS_PERIOD


def test_segment_is_deterministic_across_runs(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    outs = []
    for name in ("one.txt", "two.txt"):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "segment", str(stream),
            "--classifier", f"replay:{pred}", "--window", "9", "--out", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_segment_theta_one_gives_single_line(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    code, out, _ = run(
        capsys,
        "segment",
        str(stream),
        "--classifier",
        f"replay:{pred}",
        "--theta",
        "1.0",
    )
    assert code == 0
    assert out == " ".join(COPERNICUS_WORDS) + "\n"


def test_segmenters_question_mark_extends_boundaries(tmp_path, capsys):
    words = ["waar", "dan", "hier", "dus", "klaar"]
    marked = {1: PunctLabel.QUESTION, 4: P}
    pred = tmp_path / "pred.tsv"
    write_sepp_file(document_for(words, marked), pred)
    stream = tmp_path / "stream.txt"
    stream.write_text(" ".join(words), encoding="utf-8")

    def boundaries(segmenters):
        code, out, _ = run(
            capsys,
            "segment",
            str(stream),
            "--classifier",
            f"replay:{pred}",
            "--segmenters",
            segmenters,
        )
        assert code == 0
        return out.splitlines()

    period_only = boundaries(".")
    both = boundaries(".?")
    assert len(both) == len(period_only) + 1
    assert period_only == ["waar dan? hier dus klaar."]
    assert both == ["waar dan?", "hier dus klaar."]


def test_segment_emit_sepp_matches_eval_and_sweep(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    emitted = tmp_path / "emitted.tsv"
    gold = tmp_path / "gold.tsv"
    from sample_streams import COPERNICUS_GOLD

    write_sepp_file(document_for(COPERNICUS_WORDS, COPERNICUS_GOLD), gold)

    shared = [
        "--classifier", f"replay:{pred}", "--window", "10", "--segmenters", ".",
    ]
    code, _, _ = run(
        capsys, "segment", str(stream), "--theta", "0.5",
        "--out", str(tmp_path / "seg.txt"), "--emit-sepp", str(emitted), *shared,
    )
    assert code == 0

    code, eval_out, _ = run(capsys, "eval-boundaries", str(gold), str(emitted), *shared)
    assert code == 0

    code, sweep_out, _ = run(
        capsys, "sweep", str(gold), "--thetas", "0.1,0.5,0.9", *shared
    )
    assert code == 0
    sweep_rows = {
        line.split("\t")[0]: line.split("\t")[1:] for line in sweep_out.splitlines()[1:]
    }
    eval_row = eval_out.splitlines()[1].split("\t")
    assert sweep_rows["0.5"] == eval_row[3:6]


def test_sweep_boundary_counts_non_increasing(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    gold = tmp_path / "gold.tsv"
    from sample_streams import COPERNICUS_GOLD

    write_sepp_file(document_for(COPERNICUS_WORDS, COPERNICUS_GOLD), gold)
    code, out, _ = run(
        capsys,
        "sweep",
        str(gold),
        "--thetas",
        "0.0 0.3 0.6 0.9",
        "--classifier",
        f"replay:{pred}",
        "--window",
        "7",
        "--segmenters",
        ".",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta\tprecision\trecall\tf1"
    assert len(lines) == 5
    recalls = [float(line.split("\t")[2]) for line in lines[1:]]
    assert recalls == sorted(recalls, reverse=True)


def test_sweep_empty_theta_list_fails(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    gold = tmp_path / "gold.tsv"
    from sample_streams import COPERNICUS_GOLD

    write_sepp_file(document_for(COPERNICUS_WORDS, COPERNICUS_GOLD), gold)
    code, _, err = run(
        capsys, "sweep", str(gold), "--thetas", " , ", "--classifier", f"replay:{pred}"
    )
    assert code != 0
    assert "CONFIG" in err


def test_eval_labels_perfect_match(tmp_path, capsys):
    doc = document_for(COPERNICUS_WORDS, COPERNICUS_PRED)
    gold = tmp_path / "gold.tsv"
    write_sepp_file(doc, gold)
    code, out, _ = run(capsys, "eval-labels", str(gold), str(gold))
    assert code == 0
    assert "1.000000" in out
    for line in out.splitlines()[1:]:
        if line.strip().startswith(("0", ".", ",")):
            assert "1.000000" in line


def test_eval_labels_word_mismatch(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    a.write_text("een\t0\t0\ntwee\t1\t.\n", encoding="utf-8")
    b.write_text("een\t0\t0\nDRIE\t1\t.\n", encoding="utf-8")
    code, _, err = run(capsys, "eval-labels", str(a), str(b))
    assert code == 1
    assert "WORD_MISMATCH" in err
    assert "token 1" in err


def test_eval_labels_writes_report_files(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    write_sepp_file(document_for(COPERNICUS_WORDS, COPERNICUS_PRED), gold)
    prefix = tmp_path / "scores"
    code, _, _ = run(capsys, "eval-labels", str(gold), str(gold), "--out-prefix", str(prefix))
    assert code == 0
    assert (tmp_path / "scores.report.txt").exists()
    assert (tmp_path / "scores.report.tsv").exists()
    assert (tmp_path / "scores.confusion.tsv").exists()


def test_eval_boundaries_known_counts(tmp_path, capsys):
    words = ["a", "b", "c", "d", "e"]
    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    write_sepp_file(document_for(words, {1: P, 4: P}), gold)
    write_sepp_file(document_for(words, {1: P, 3: P}), pred)
    code, out, _ = run(capsys, "eval-boundaries", str(gold), str(pred), "--segmenters", ".")
    assert code == 0
    header, row = out.splitlines()
    assert header == "tp\tfp\tfn\tprecision\trecall\tf1"
    assert row.split("\t") == ["1", "1", "1", "0.500000", "0.500000", "0.500000"]


def test_classify_train_round_trip(tmp_path, capsys):
    corpus = template_corpus(400, seed=5)
    train_file = tmp_path / "train.tsv"
    test_file = tmp_path / "test.tsv"
    full = tmp_path / "full.tsv"
    write_sepp_file(corpus, full)

    code, _, err = run(
        capsys, "split", str(full),
        "--train-out", str(train_file), "--test-out", str(test_file),
        "--fraction", "0.75", "--seed", "3",
    )
    assert code == 0
    assert "train units: 300, test units: 100" in err

    model = tmp_path / "model.bin"
    code, _, _ = run(
        capsys, "train", str(train_file), "--out", str(model), "--epochs", "4", "--seed", "1"
    )
    assert code == 0

    pred = tmp_path / "pred.tsv"
    code, _, _ = run(
        capsys, "classify", str(test_file),
        "--classifier", f"builtin:{model}", "--out", str(pred),
    )
    assert code == 0

    gold_doc = parse_sepp(test_file.read_text(encoding="utf-8"))
    pred_doc = parse_sepp(pred.read_text(encoding="utf-8"))
    assert pred_doc.words() == gold_doc.words()
    agree = sum(
        1 for g, p in zip(gold_doc.tokens, pred_doc.tokens) if g.label is p.label
    )
    assert agree / len(gold_doc) > 0.95


@pytest.fixture
def period_at_request_end(tmp_path):
    """External classifier spec whose child marks the last word of every request."""
    script = tmp_path / "last_word.py"
    script.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    labels = ['0'] * len(line.split())\n"
        "    labels[-1] = '.'\n"
        "    print(' '.join(labels), flush=True)\n",
        encoding="utf-8",
    )
    return f"external:{sys.executable} {script}"


@pytest.mark.parametrize(
    "n_words, window, request_ends",
    [(10, "3", [2, 5, 8, 9]), (450, "300", [199, 399, 449])],
)
def test_classify_chunks_at_window_or_classifier_limit(
    tmp_path, capsys, period_at_request_end, n_words, window, request_ends
):
    # The external adapter accepts at most 200 words per request.
    doc = tmp_path / "doc.tsv"
    write_sepp_file(document_for([f"w{i}" for i in range(n_words)], {}), doc)
    code, out, _ = run(
        capsys, "classify", str(doc), "--classifier", period_at_request_end, "--window", window
    )
    assert code == 0
    labels = [t.label for t in parse_sepp(out)]
    assert [i for i, label in enumerate(labels) if label is P] == request_ends


def test_classify_word_the_protocol_cannot_carry_is_a_coded_error(
    tmp_path, capsys, period_at_request_end
):
    doc = tmp_path / "doc.tsv"
    write_sepp_file(document_for(["twee woorden", "hier"], {1: P}), doc)
    code, _, err = run(capsys, "classify", str(doc), "--classifier", period_at_request_end)
    assert code == 1
    assert err.startswith("error: [WINDOW_CLASSIFY] ")
    assert "Traceback" not in err


def test_classify_replay_mismatch_is_a_coded_error(tmp_path, capsys):
    doc = tmp_path / "doc.tsv"
    write_sepp_file(document_for(["onbekend", "stream"], {1: P}), doc)
    recorded = tmp_path / "recorded.tsv"
    write_sepp_file(document_for(["heel", "andere", "tekst"], {2: P}), recorded)
    code, _, err = run(capsys, "classify", str(doc), "--classifier", f"replay:{recorded}")
    assert code == 1
    assert err.startswith("error: [WINDOW_CLASSIFY] ")


def test_significance_identical_conditions(tmp_path, capsys):
    corpus = template_corpus(80, seed=2)
    gold = tmp_path / "gold.tsv"
    write_sepp_file(corpus, gold)
    pred = tmp_path / "replay.tsv"
    write_sepp_file(corpus, pred)
    cfg = tmp_path / "cond.cfg"
    cfg.write_text(f"classifier = replay:{pred}\nsegmenters = .\n", encoding="utf-8")

    code, out, _ = run(
        capsys, "significance", str(gold),
        "--config-a", str(cfg), "--config-b", str(cfg), "--block-size", "20",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "condition\tn\tmedian\taverage\tstddev\tci_lo\tci_hi"
    assert lines[1] == "A\t4\t1.000000\t1.000000\t0.000000\t1.000000\t1.000000"
    assert lines[1].replace("A\t", "") == lines[2].replace("B\t", "")
    assert lines[3] == "p_value\t1"


def _toy_significance_corpus(tmp_path):
    """4 blocks of 2 sentences; condition B misses one boundary in block 0
    and inserts a false one in block 2."""
    gold_tokens = []
    pred_marks = {}
    idx = 0
    for k in range(4):
        for s in range(2):
            words = [f"b{k}s{s}w0", f"b{k}s{s}w1", f"b{k}s{s}end"]
            for w in words[:-1]:
                gold_tokens.append(LabeledToken(w, False, N))
                idx += 1
            gold_tokens.append(LabeledToken(words[-1], True, P))
            miss = k == 0 and s == 1
            if not miss:
                pred_marks[idx] = P
            idx += 1
    pred_marks[2 * 6 + 1] = P  # false boundary on block 2's second word
    gold = tmp_path / "gold.tsv"
    write_sepp_file(SeppDocument(gold_tokens), gold)
    words = [t.word for t in gold_tokens]
    pred = tmp_path / "predB.tsv"
    write_sepp_file(document_for(words, pred_marks), pred)
    return gold, pred


def test_significance_toy_blocks_match_hand_computation(tmp_path, capsys):
    gold, pred_b = _toy_significance_corpus(tmp_path)
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(f"classifier = replay:{gold}\nsegmenters = .\n", encoding="utf-8")
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(f"classifier = replay:{pred_b}\nsegmenters = .\n", encoding="utf-8")

    code, out, _ = run(
        capsys, "significance", str(gold),
        "--config-a", str(cfg_a), "--config-b", str(cfg_b), "--block-size", "2",
    )
    assert code == 0
    lines = out.splitlines()
    # block F1s for B: 2/3, 1, 0.8, 1 (hand-computed set arithmetic)
    assert lines[1] == "A\t4\t1.000000\t1.000000\t0.000000\t1.000000\t1.000000"
    b = lines[2].split("\t")
    assert b[0] == "B"
    assert b[2] == "0.900000"  # median of 2/3, 0.8, 1, 1
    assert b[3] == "0.866667"
    assert b[5] == "0.666667"
    assert b[6] == "1.000000"
    assert lines[3] == "p_value\t0.5"  # exhaustive over 2^4 sign flips


def test_significance_emits_per_block_scores(tmp_path, capsys):
    gold, pred_b = _toy_significance_corpus(tmp_path)
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(f"classifier = replay:{gold}\nsegmenters = .\n", encoding="utf-8")
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(f"classifier = replay:{pred_b}\nsegmenters = .\n", encoding="utf-8")
    scores = tmp_path / "scores.tsv"
    code, _, _ = run(
        capsys, "significance", str(gold),
        "--config-a", str(cfg_a), "--config-b", str(cfg_b),
        "--block-size", "2", "--scores-out", str(scores),
    )
    assert code == 0
    lines = scores.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "block\tf1_a\tf1_b"
    assert lines[1] == "0\t1.000000\t0.666667"
    assert lines[3] == "2\t1.000000\t0.800000"


def test_config_file_flag_precedence(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    cfg = tmp_path / "seg.cfg"
    cfg.write_text(
        f"# condition settings\ntheta = 1.0\nclassifier = replay:{pred}\nsegmenters = .\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "segment", str(stream), "--config", str(cfg))
    assert code == 0
    assert len(out.splitlines()) == 1  # theta 1.0 from file: nothing accepted

    code, out, _ = run(capsys, "segment", str(stream), "--config", str(cfg), "--theta", "0.1")
    assert code == 0
    assert out.splitlines() == COPERNICUS_SEGMENTS_PERIOD  # flag overrides file


def test_config_file_unknown_key_fails(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    cfg = tmp_path / "seg.cfg"
    cfg.write_text("windows = 5\n", encoding="utf-8")
    code, _, err = run(capsys, "segment", str(stream), "--config", str(cfg))
    assert code == 1
    assert "CONFIG" in err
    assert "windows" in err


def test_missing_classifier_fails(tmp_path, capsys, copernicus_files):
    stream, _ = copernicus_files
    code, _, err = run(capsys, "segment", str(stream))
    assert code == 1
    assert "CONFIG" in err


def test_missing_input_fails_before_any_output(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    out = tmp_path / "out.tsv"
    code, _, err = run(capsys, "prepare", str(missing), "--out", str(out))
    assert code == 1
    assert "not found" in err
    assert not out.exists()
    code, _, err = run(
        capsys, "segment", str(missing), "--classifier", "replay:also-missing.tsv"
    )
    assert code == 1
    assert "not found" in err


def test_output_files_written_atomically(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    out = tmp_path / "segments.txt"
    code, _, _ = run(
        capsys, "segment", str(stream), "--classifier", f"replay:{pred}", "--out", str(out)
    )
    assert code == 0
    assert out.exists()
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]

import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpora import template_corpus
from puncseg.cli import build_parser, main, resolve_settings
from puncseg.sepp import (
    LabeledToken,
    PunctLabel,
    SeppDocument,
    atomic_write,
    parse_sepp,
    strip_labels,
    write_sepp,
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
    atomic_write(pred, write_sepp(document_for(COPERNICUS_WORDS, COPERNICUS_PRED)))
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
    atomic_write(pred, write_sepp(document_for(words, marked)))
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


@pytest.mark.parametrize(
    "segmenters, rows",
    [
        # an uncut full stop keeps its flag, a cut question mark sets it, a comma does not
        ("?", ["een\t1\t.\n", "twee\t1\t?\n", "drie\t0\t,\n", "vier\t0\t0\n"]),
        # a cut comma sets it, an uncut question mark does not
        (",", ["een\t1\t.\n", "twee\t0\t?\n", "drie\t1\t,\n", "vier\t0\t0\n"]),
    ],
)
def test_segment_emit_sepp_flags_every_full_stop_and_every_cut(
    tmp_path, capsys, segmenters, rows
):
    words = ["een", "twee", "drie", "vier"]
    pred = tmp_path / "pred.tsv"
    atomic_write(pred, write_sepp(document_for(words, {0: P, 1: PunctLabel.QUESTION, 2: C})))
    stream = tmp_path / "stream.txt"
    stream.write_text(" ".join(words), encoding="utf-8")
    emitted = tmp_path / "emitted.tsv"
    code, _, _ = run(
        capsys, "segment", str(stream), "--classifier", f"replay:{pred}",
        "--segmenters", segmenters, "--emit-sepp", str(emitted),
    )
    assert code == 0
    assert emitted.read_text(encoding="utf-8") == "".join(rows)


def test_segment_emit_sepp_matches_eval_and_sweep(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    emitted = tmp_path / "emitted.tsv"
    gold = tmp_path / "gold.tsv"
    from sample_streams import COPERNICUS_GOLD

    atomic_write(gold, write_sepp(document_for(COPERNICUS_WORDS, COPERNICUS_GOLD)))

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

    atomic_write(gold, write_sepp(document_for(COPERNICUS_WORDS, COPERNICUS_GOLD)))
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

    atomic_write(gold, write_sepp(document_for(COPERNICUS_WORDS, COPERNICUS_GOLD)))
    code, _, err = run(
        capsys, "sweep", str(gold), "--thetas", " , ", "--classifier", f"replay:{pred}"
    )
    assert code != 0
    assert "CONFIG" in err


def test_eval_labels_perfect_match(tmp_path, capsys):
    doc = document_for(COPERNICUS_WORDS, COPERNICUS_PRED)
    gold = tmp_path / "gold.tsv"
    atomic_write(gold, write_sepp(doc))
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
    atomic_write(gold, write_sepp(document_for(COPERNICUS_WORDS, COPERNICUS_PRED)))
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
    atomic_write(gold, write_sepp(document_for(words, {1: P, 4: P})))
    atomic_write(pred, write_sepp(document_for(words, {1: P, 3: P})))
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
    atomic_write(full, write_sepp(corpus))

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
    assert strip_labels(pred_doc) == strip_labels(gold_doc)
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
    atomic_write(doc, write_sepp(document_for([f"w{i}" for i in range(n_words)], {})))
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
    atomic_write(doc, write_sepp(document_for(["twee woorden", "hier"], {1: P})))
    code, _, err = run(capsys, "classify", str(doc), "--classifier", period_at_request_end)
    assert code == 1
    assert err.startswith("error: [WINDOW_CLASSIFY] ")
    assert "Traceback" not in err


def test_classify_replay_mismatch_is_a_coded_error(tmp_path, capsys):
    doc = tmp_path / "doc.tsv"
    atomic_write(doc, write_sepp(document_for(["onbekend", "stream"], {1: P})))
    recorded = tmp_path / "recorded.tsv"
    atomic_write(recorded, write_sepp(document_for(["heel", "andere", "tekst"], {2: P})))
    code, _, err = run(capsys, "classify", str(doc), "--classifier", f"replay:{recorded}")
    assert code == 1
    assert err.startswith("error: [WINDOW_CLASSIFY] ")


def test_significance_identical_conditions(tmp_path, capsys):
    corpus = template_corpus(80, seed=2)
    gold = tmp_path / "gold.tsv"
    atomic_write(gold, write_sepp(corpus))
    pred = tmp_path / "replay.tsv"
    atomic_write(pred, write_sepp(corpus))
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
    atomic_write(gold, write_sepp(SeppDocument(gold_tokens)))
    words = [t.word for t in gold_tokens]
    pred = tmp_path / "predB.tsv"
    atomic_write(pred, write_sepp(document_for(words, pred_marks)))
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


def test_significance_rejects_condition_b_settings_before_scoring(tmp_path, capsys, monkeypatch):
    from puncseg import segmenter

    gold, _ = _toy_significance_corpus(tmp_path)
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(f"classifier = replay:{gold}\nsegmenters = .\n", encoding="utf-8")
    cfg_b = tmp_path / "b.cfg"
    calls = []
    accumulate_votes = segmenter.accumulate_votes

    def counting(*args, **kwargs):
        calls.append(1)
        return accumulate_votes(*args, **kwargs)

    monkeypatch.setattr(segmenter, "accumulate_votes", counting)
    absent = tmp_path / "absent.tsv"
    not_found = f"error: [Errno 2] No such file or directory: '{absent}'"
    for settings_b, error in [
        (f"classifier = replay:{gold}\ntheta = 2\n", "error: [CONFIG] theta must lie in [0, 1]"),
        (f"classifier = replay:{absent}\n", not_found),
        (
            "classifier = external:no-such-program-xyz\n",
            "error: [CONFIG] external program 'no-such-program-xyz' not found",
        ),
    ]:
        cfg_b.write_text(settings_b, encoding="utf-8")
        code, out, err = run(
            capsys, "significance", str(gold),
            "--config-a", str(cfg_a), "--config-b", str(cfg_b), "--block-size", "2",
        )
        assert code == 1
        assert err.startswith(error)
        assert out == ""
        assert calls == []


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


@pytest.mark.parametrize(
    "key,raw,value",
    [
        ("window", "7", 7),
        ("stride", "3", 3),
        ("theta", "0.25", 0.25),
        ("segmenters", "?", "?"),
        ("pooling", "pooled", "pooled"),
        ("classifier", "builtin:m.bin", "builtin:m.bin"),
        ("seed", "5", 5),
    ],
)
def test_flag_and_config_line_resolve_to_the_same_value(tmp_path, key, raw, value):
    cfg = tmp_path / "seg.cfg"
    cfg.write_text(f"{key} = {raw}\n", encoding="utf-8")
    parser = build_parser()
    by_flag = resolve_settings(parser.parse_args(["segment", "in.txt", f"--{key}", raw]))
    by_file = resolve_settings(parser.parse_args(["segment", "in.txt", "--config", str(cfg)]))
    assert by_flag == by_file
    assert by_flag[key] == value and type(by_flag[key]) is type(value)


def test_pooling_flag_outside_its_choices_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["segment", str(tmp_path / "in.txt"), "--pooling", "bogus"])
    assert exc_info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_pooling_config_line_outside_its_choices_is_a_config_error(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("een twee drie\n", encoding="utf-8")
    cfg = tmp_path / "seg.cfg"
    cfg.write_text("pooling = bogus\n", encoding="utf-8")
    code, out, err = run(capsys, "segment", str(stream), "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: [CONFIG]") and "bogus" in err


SEGMENT_HELP = """\
usage: puncseg segment [-h] [--out OUT] [--emit-sepp EMIT_SEPP]
                       [--window WINDOW] [--stride STRIDE] [--theta THETA]
                       [--segmenters SEGMENTERS]
                       [--pooling {per_class,pooled}]
                       [--classifier CLASSIFIER] [--seed SEED]
                       [--config CONFIG]
                       input

positional arguments:
  input

options:
  -h, --help            show this help message and exit
  --out OUT
  --emit-sepp EMIT_SEPP
                        also write predicted labels as SEPP
  --window WINDOW       sliding window size in words
  --stride STRIDE       window stride in words
  --theta THETA         vote-ratio acceptance threshold
  --segmenters SEGMENTERS
                        segmenting label characters, e.g. '.' or '.?'
  --pooling {per_class,pooled}
                        vote pooling mode
  --classifier CLASSIFIER
                        builtin:<model path> | external:<command> |
                        replay:<sepp path>
  --seed SEED           RNG seed
  --config CONFIG       key = value settings file
"""


def test_segment_help_golden_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc_info:
        main(["segment", "--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out == SEGMENT_HELP


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
    assert err.startswith("error: ")
    assert str(missing) in err
    assert not out.exists()
    # the input is read before the classifier opens, so the error names the input
    code, _, err = run(
        capsys, "segment", str(missing), "--classifier", "replay:also-missing.tsv",
        "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error: ")
    assert str(missing) in err
    assert "also-missing.tsv" not in err
    assert not out.exists()


def test_external_program_not_on_path_fails_before_any_output(tmp_path, capsys, copernicus_files):
    stream, _ = copernicus_files
    out = tmp_path / "out.txt"
    code, stdout, err = run(
        capsys, "segment", str(stream), "--classifier", "external:no-such-program-xyz",
        "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error: [CONFIG] external program 'no-such-program-xyz' not found")
    assert stdout == ""
    assert not out.exists()


def test_significance_builds_both_classifiers_and_closes_a_before_b_classifies(
    tmp_path, capsys, monkeypatch
):
    from puncseg import cli

    gold, pred_b = _toy_significance_corpus(tmp_path)
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(f"classifier = replay:{gold}\nsegmenters = .\n", encoding="utf-8")
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(f"classifier = replay:{pred_b}\nsegmenters = .\n", encoding="utf-8")
    events = []
    make_classifier = cli.make_classifier

    class Recording:
        def __init__(self, name, classifier):
            self.name, self.classifier = name, classifier

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append(("close", self.name))

        def classify(self, words):
            events.append(("classify", self.name))
            return self.classifier.classify(words)

    def recording(spec):
        name = "A" if spec == f"replay:{gold}" else "B"
        events.append(("build", name))
        with make_classifier(spec) as classifier:
            return Recording(name, classifier)

    monkeypatch.setattr(cli, "make_classifier", recording)
    code, _, _ = run(
        capsys, "significance", str(gold),
        "--config-a", str(cfg_a), "--config-b", str(cfg_b), "--block-size", "2",
    )
    assert code == 0
    steps = [e for i, e in enumerate(events) if i == 0 or e != events[i - 1]]
    assert sorted(steps[:2]) == [("build", "A"), ("build", "B")]
    assert steps[2:] == [("classify", "A"), ("close", "A"), ("classify", "B"), ("close", "B")]


def test_output_files_written_atomically(tmp_path, capsys, copernicus_files):
    stream, pred = copernicus_files
    out = tmp_path / "segments.txt"
    code, _, _ = run(
        capsys, "segment", str(stream), "--classifier", f"replay:{pred}", "--out", str(out)
    )
    assert code == 0
    assert out.exists()
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["split", "{gold}", "--train-out", "{tmp}/a", "--test-out", "{tmp}/b",
          "--fraction", "1.5"], "--fraction 1.5"),
        (["train", "{gold}", "--out", "{tmp}/m.bin", "--window", "0"], "--window 0"),
        (["train", "{gold}", "--out", "{tmp}/m.bin", "--epochs", "-1"], "--epochs -1"),
        (["classify", "{gold}", "--classifier", "replay:{gold}", "--window", "0"], "--window 0"),
        (["significance", "{gold}", "--config-a", "{cfg}", "--config-b", "{cfg}",
          "--block-size", "0"], "--block-size 0"),
        (["significance", "{gold}", "--config-a", "{cfg}", "--config-b", "{cfg}",
          "--block-size", "2", "--permutations", "-1"], "--permutations -1"),
        (["significance", "{gold}", "--config-a", "{cfg}", "--config-b", "{cfg}",
          "--block-size", "2", "--permutations", "-2"], "--permutations -2"),
        (["classify", "{gold}", "--config", "{bad_cfg}"], "window 0"),
        (["prepare", "{raw}", "--out", "{tmp}/out.tsv", "--truecase-model", "{truecase}"],
         "truecase.tsv:2"),
        # the classifier file is absent: building the classifier first would fail differently
        (["sweep", "{gold}", "--thetas", "0.1,1.5", "--classifier", "replay:{tmp}/absent"],
         "--thetas 1.5: must lie in [0, 1]"),
        (["sweep", "{gold}", "--thetas", "nan", "--classifier", "replay:{tmp}/absent"],
         "--thetas nan: must lie in [0, 1]"),
        (["sweep", "{gold}", "--thetas", "-0.1 0.5", "--classifier", "replay:{tmp}/absent"],
         "--thetas -0.1: must lie in [0, 1]"),
        (["sweep", "{gold}", "--thetas", "inf", "--classifier", "replay:{tmp}/absent"],
         "--thetas inf: must lie in [0, 1]"),
        (["train", "{gold}", "--out", "{tmp}/m.bin", "--seed", "9223372036854775808"],
         "seed 9223372036854775808"),
        (["train", "{gold}", "--out", "{tmp}/m.bin", "--seed", "-9223372036854775809"],
         "seed -9223372036854775809"),
        (["train", "{gold}", "--out", "{tmp}/m.bin", "--epochs", "4294967296"],
         "epochs 4294967296"),
        (["train", "{gold}", "--out", "{tmp}/m.bin", "--config", "{seed_cfg}"],
         "seed 9223372036854775808"),
        (["classify", "{gold}", "--config", "{no_eq_cfg}"], "no_eq.cfg:2: expected 'key = value'"),
        (["classify", "{gold}", "--config", "{abc_cfg}"], "abc.cfg:1: bad value for window"),
        (["eval-boundaries", "{gold}", "{gold}", "--segmenters", "x"],
         "unknown segmenter character 'x'"),
        (["eval-boundaries", "{gold}", "{gold}", "--segmenters", "0"], "0 cannot be a segmenter"),
        (["eval-boundaries", "{gold}", "{gold}", "--segmenters", ""],
         "segmenter set must not be empty"),
        (["classify", "{gold}", "--classifier", "builtin"],
         "classifier spec 'builtin' is not kind:argument"),
        (["classify", "{gold}", "--classifier", "foo:bar"], "unknown classifier kind 'foo'"),
        (["eval-labels", "{gold}", "{prefix}"], "[WORD_MISMATCH] word columns diverge at token 5"),
        (["sweep", "{gold}", "--thetas", "abc", "--classifier", "replay:{tmp}/absent"],
         "bad theta value"),
        (["significance", "{gold}", "--config-a", "{cfg}", "--config-b", "{cfg}",
          "--block-size", "8"], "only 1 block(s)"),
        (["classify", "{empty}", "--classifier", "replay:{gold}"], "[EMPTY_STREAM]"),
        (["split", "{gold}", "--train-out", "{tmp}/a", "--test-out", "{tmp}/b",
          "--fraction", "0.9"], "[TOO_FEW_UNITS] 8 sentence units at train fraction 0.9"),
        (["classify", "{gold}", "--classifier", "external:   ", "--out", "{tmp}/pred.tsv"],
         "[CONFIG] external command is empty"),
        (["classify", "{gold}", "--classifier", 'external:"open', "--out", "{tmp}/pred.tsv"],
         "[CONFIG] external command '\"open': No closing quotation"),
    ],
    ids=[
        "split-fraction", "train-window", "train-epochs", "classify-window", "block-size",
        "permutations-minus-1", "permutations-minus-2", "config-window", "truecase-line",
        "sweep-theta-above", "sweep-theta-nan", "sweep-theta-below", "sweep-theta-inf",
        "train-seed-above", "train-seed-below", "train-epochs-above", "config-seed",
        "config-no-equals", "config-window-abc", "segmenters-unknown", "segmenters-none",
        "segmenters-empty", "classifier-no-argument", "classifier-unknown-kind",
        "pred-prefix-of-gold", "sweep-theta-abc", "significance-one-block",
        "classify-empty-document", "split-no-test-unit", "external-blank", "external-open-quote",
    ],
)
def test_out_of_range_arguments_are_coded_errors(tmp_path, capsys, argv, named):
    gold, _ = _toy_significance_corpus(tmp_path)
    cfg = tmp_path / "cond.cfg"
    cfg.write_text(f"classifier = replay:{gold}\nsegmenters = .\n", encoding="utf-8")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(f"classifier = replay:{gold}\nwindow = 0\n", encoding="utf-8")
    raw = tmp_path / "raw.txt"
    raw.write_text("de man liep.\n", encoding="utf-8")
    truecase = tmp_path / "truecase.tsv"
    truecase.write_text("de\tde\t3\nman zonder tabs\n", encoding="utf-8")
    seed_cfg = tmp_path / "seed.cfg"
    seed_cfg.write_text("seed = 9223372036854775808\n", encoding="utf-8")
    no_eq_cfg = tmp_path / "no_eq.cfg"
    no_eq_cfg.write_text("# a comment\nwindow 200\n", encoding="utf-8")
    abc_cfg = tmp_path / "abc.cfg"
    abc_cfg.write_text("window = abc\n", encoding="utf-8")
    prefix = tmp_path / "prefix.tsv"
    prefix.write_text("".join(gold.read_text(encoding="utf-8").splitlines(True)[:5]),
                      encoding="utf-8")
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    paths = {"tmp": tmp_path, "gold": gold, "cfg": cfg, "bad_cfg": bad_cfg, "raw": raw,
             "truecase": truecase, "seed_cfg": seed_cfg, "no_eq_cfg": no_eq_cfg,
             "abc_cfg": abc_cfg, "prefix": prefix, "empty": empty}
    before = sorted(os.listdir(tmp_path))
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 1
    assert err.startswith("error: [")
    assert named in err
    assert "p_value" not in out
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("writer", ["train", "truecase"])
def test_a_failed_model_write_keeps_the_previous_file(tmp_path, capsys, monkeypatch, writer):
    import builtins
    import stat

    from puncseg import sepp, textprep

    class HalfWrite:
        """A file whose write stores half of the data, then fails."""

        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return HalfWrite(fh) if "w" in mode or "x" in mode else fh

    corpus = tmp_path / "corpus.tsv"
    atomic_write(corpus, write_sepp(template_corpus(30, seed=1)))
    target = tmp_path / "model"

    def write(n):
        """Write a target that depends on ``n``; return the exit code."""
        if writer == "train":
            return run(capsys, "train", str(corpus), "--out", str(target), "--epochs", str(n))[0]
        try:
            textprep.train_truecaser([["De", "man"]] + [["de", "Man"]] * n).save(target)
        except OSError:
            return 1
        return 0

    assert write(1) == 0
    previous = target.read_bytes()
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    monkeypatch.setattr(sepp, "open", failing_open, raising=False)
    assert write(3) == 1
    assert target.read_bytes() == previous
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]


def test_cli_closes_every_external_classifier_it_builds(
    tmp_path, capsys, monkeypatch, period_at_request_end
):
    from puncseg.external import ExternalClassifier

    built, closed = [], set()
    real_init, real_close = ExternalClassifier.__init__, ExternalClassifier.close

    def init(self, config):
        built.append(self)
        real_init(self, config)

    def close(self):
        closed.add(id(self))
        real_close(self)

    monkeypatch.setattr(ExternalClassifier, "__init__", init)
    monkeypatch.setattr(ExternalClassifier, "close", close)
    monkeypatch.setattr(ExternalClassifier, "__del__", lambda self: None)

    gold, _ = _toy_significance_corpus(tmp_path)
    stream = tmp_path / "stream.txt"
    stream.write_text(" ".join(gold.read_text(encoding="utf-8").split()[::3]), encoding="utf-8")
    cfg = tmp_path / "ext.cfg"
    cfg.write_text(f"classifier = {period_at_request_end}\nsegmenters = .\n", encoding="utf-8")
    bad = tmp_path / "bad.tsv"
    atomic_write(bad, write_sepp(document_for(["hier", "twee woorden"], {1: P})))
    invocations = [
        (["classify", str(gold), "--classifier", period_at_request_end], 0),
        (["segment", str(stream), "--classifier", period_at_request_end], 0),
        (["sweep", str(gold), "--thetas", "0.1", "--classifier", period_at_request_end], 0),
        (["significance", str(gold), "--config-a", str(cfg), "--config-b", str(cfg),
          "--block-size", "2"], 0),
        # the child answers the first one-word request before the second fails
        (["classify", str(bad), "--classifier", period_at_request_end, "--window", "1"], 1),
    ]
    try:
        for argv, want in invocations:
            before = len(built)
            assert run(capsys, *argv)[0] == want, argv
            new = built[before:]
            assert len(new) == (2 if argv[0] == "significance" else 1), argv
            assert all(id(clf) in closed and clf._proc is None for clf in new), argv
    finally:
        for clf in built:
            real_close(clf)


# Exact output text of the table-writing commands for fixed inputs.


def test_sweep_golden_bytes(tmp_path, capsys, copernicus_files):
    from sample_streams import COPERNICUS_GOLD

    _, pred = copernicus_files
    gold = tmp_path / "gold.tsv"
    atomic_write(gold, write_sepp(document_for(COPERNICUS_WORDS, COPERNICUS_GOLD)))
    code, out, _ = run(
        capsys, "sweep", str(gold), "--thetas", "0, 1e-05 0.3333333,1",
        "--classifier", f"replay:{pred}", "--window", "7", "--segmenters", ".?",
    )
    assert code == 0
    assert out == (
        "theta\tprecision\trecall\tf1\n"
        "0\t1.000000\t0.545455\t0.705882\n"
        "1e-05\t1.000000\t0.545455\t0.705882\n"
        "0.333333\t1.000000\t0.545455\t0.705882\n"
        "1\t0.000000\t0.000000\t0.000000\n"
    )


def test_significance_golden_bytes(tmp_path, capsys):
    gold, pred_b = _toy_significance_corpus(tmp_path)
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(f"classifier = replay:{gold}\nsegmenters = .\n", encoding="utf-8")
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(f"classifier = replay:{pred_b}\nsegmenters = .\n", encoding="utf-8")
    scores = tmp_path / "scores.tsv"
    code, out, _ = run(
        capsys, "significance", str(gold), "--config-a", str(cfg_a), "--config-b", str(cfg_b),
        "--block-size", "2", "--permutations", "5", "--seed", "3", "--scores-out", str(scores),
    )
    assert code == 0
    assert out == (
        "condition\tn\tmedian\taverage\tstddev\tci_lo\tci_hi\n"
        "A\t4\t1.000000\t1.000000\t0.000000\t1.000000\t1.000000\n"
        "B\t4\t0.900000\t0.866667\t0.141421\t0.666667\t1.000000\n"
        "p_value\t0.333333\n"
    )
    assert scores.read_bytes() == (
        b"block\tf1_a\tf1_b\n"
        b"0\t1.000000\t0.666667\n"
        b"1\t1.000000\t1.000000\n"
        b"2\t1.000000\t0.800000\n"
        b"3\t1.000000\t1.000000\n"
    )


def test_eval_labels_out_prefix_golden_bytes(tmp_path, capsys):
    from sample_streams import COPERNICUS_GOLD

    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    atomic_write(gold, write_sepp(document_for(COPERNICUS_WORDS, COPERNICUS_GOLD)))
    atomic_write(pred, write_sepp(document_for(COPERNICUS_WORDS, COPERNICUS_PRED)))
    prefix = tmp_path / "eval"
    code, out, _ = run(capsys, "eval-labels", str(gold), str(pred), "--out-prefix", str(prefix))
    assert code == 0
    assert out == ""
    assert (tmp_path / "eval.report.txt").read_bytes() == (
        b"       class  precision     recall   f1-score    support\n"
        b"           0   0.950820   1.000000   0.974790         58\n"
        b"           .   0.833333   0.555556   0.666667          9\n"
        b"           ,   0.500000   0.750000   0.600000          4\n"
        b"           ?   0.000000   0.000000   0.000000          2\n"
        b"           -   0.000000   0.000000   0.000000          0\n"
        b"           :   0.000000   0.000000   0.000000          0\n"
        b"\n"
        b"    accuracy                         0.904110         73\n"
        b"   macro avg   0.380692   0.384259   0.373576         73\n"
        b"weighted avg   0.885583   0.904110   0.889559         73\n"
    )
    assert (tmp_path / "eval.report.tsv").read_bytes() == (
        b"class\tprecision\trecall\tf1\tsupport\n"
        b"0\t0.950820\t1.000000\t0.974790\t58\n"
        b".\t0.833333\t0.555556\t0.666667\t9\n"
        b",\t0.500000\t0.750000\t0.600000\t4\n"
        b"?\t0.000000\t0.000000\t0.000000\t2\n"
        b"-\t0.000000\t0.000000\t0.000000\t0\n"
        b":\t0.000000\t0.000000\t0.000000\t0\n"
        b"accuracy\t\t\t0.904110\t73\n"
        b"macro avg\t0.380692\t0.384259\t0.373576\t73\n"
        b"weighted avg\t0.885583\t0.904110\t0.889559\t73\n"
    )
    assert (tmp_path / "eval.confusion.tsv").read_bytes() == (
        b"\t0\t.\t,\t?\t-\t:\n"
        b"0\t58\t0\t0\t0\t0\t0\n"
        b".\t2\t5\t2\t0\t0\t0\n"
        b",\t1\t0\t3\t0\t0\t0\n"
        b"?\t0\t1\t1\t0\t0\t0\n"
        b"-\t0\t0\t0\t0\t0\t0\n"
        b":\t0\t0\t0\t0\t0\t0\n"
    )


def _reader_inputs(tmp_path):
    """One valid file of every kind the CLI reads, keyed by template name."""
    gold, _ = _toy_significance_corpus(tmp_path)
    stream = tmp_path / "stream.txt"
    stream.write_text(" ".join(COPERNICUS_WORDS[:20]) + "\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    atomic_write(pred, write_sepp(document_for(COPERNICUS_WORDS[:20], COPERNICUS_PRED)))
    cfg = tmp_path / "cond.cfg"
    cfg.write_text(f"classifier = replay:{gold}\nsegmenters = .\n", encoding="utf-8")
    raw = tmp_path / "raw.txt"
    raw.write_text("De man liep.\nde man zag de man.\n", encoding="utf-8")
    truecase = tmp_path / "truecase.tsv"
    truecase.write_text("de\tDe\t3\nman\tman\t2\n", encoding="utf-8")
    return {"tmp": tmp_path, "gold": gold, "stream": stream, "pred": pred, "cfg": cfg,
            "raw": raw, "truecase": truecase}


_NOT_UTF8_CASES = {
    "segment-stream": (["segment", "{stream}", "--classifier", "replay:{pred}"], "stream"),
    "segment-replay": (["segment", "{stream}", "--classifier", "replay:{pred}"], "pred"),
    "classify": (["classify", "{gold}", "--classifier", "replay:{gold}"], "gold"),
    "train": (["train", "{gold}", "--out", "{tmp}/m.bin"], "gold"),
    "split": (["split", "{gold}", "--train-out", "{tmp}/a", "--test-out", "{tmp}/b"], "gold"),
    "eval-labels": (["eval-labels", "{gold}", "{pred}"], "pred"),
    "eval-boundaries": (["eval-boundaries", "{gold}", "{pred}"], "gold"),
    "sweep": (["sweep", "{gold}", "--thetas", "0.5", "--classifier", "replay:{gold}"], "gold"),
    "significance": (["significance", "{gold}", "--config-a", "{cfg}", "--config-b", "{cfg}",
                      "--block-size", "2"], "gold"),
    "prepare-corpus": (["prepare", "{raw}", "--out", "{tmp}/out.tsv"], "raw"),
    "truecase-model": (["prepare", "{raw}", "--out", "{tmp}/out.tsv",
                        "--truecase-model", "{truecase}"], "truecase"),
    "config": (["segment", "{stream}", "--config", "{cfg}"], "cfg"),
    "config-a": (["significance", "{gold}", "--config-a", "{cfg}", "--config-b", "{cfg}",
                  "--block-size", "2"], "cfg"),
}


@pytest.mark.parametrize("argv, bad", _NOT_UTF8_CASES.values(), ids=_NOT_UTF8_CASES.keys())
def test_input_that_is_not_utf8_is_a_coded_error_with_no_output(tmp_path, capsys, argv, bad):
    paths = _reader_inputs(tmp_path)
    target = paths[bad]
    first, _, rest = target.read_bytes().partition(b"\n")
    target.write_bytes(first + b"\n\xff" + rest)
    before = sorted(os.listdir(tmp_path))
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 1
    assert err.startswith(f"error: [NOT_UTF8] {target}: ")
    assert "Traceback" not in err
    assert out == ""
    assert sorted(os.listdir(tmp_path)) == before


_BOM_CASES = {
    "segment-stream": (["segment", "{stream}", "--classifier", "replay:{pred}", "--out",
                        "{tmp}/out.txt", "--emit-sepp", "{tmp}/out.tsv"], "stream"),
    "prepare-corpus": (["prepare", "{raw}", "--out", "{tmp}/out.tsv"], "raw"),
    "truecase-model": (["prepare", "{raw}", "--out", "{tmp}/out.tsv",
                        "--truecase-model", "{truecase}"], "truecase"),
    "config": (["eval-boundaries", "{gold}", "{gold}", "--config", "{cfg}", "--out",
                "{tmp}/out.tsv"], "cfg"),
    "sepp": (["eval-labels", "{gold}", "{gold}", "--out-prefix", "{tmp}/out"], "gold"),
}


@pytest.mark.parametrize("argv, bom", _BOM_CASES.values(), ids=_BOM_CASES.keys())
def test_a_leading_byte_order_mark_changes_no_output(tmp_path, capsys, argv, bom):
    def outputs(with_bom):
        paths = _reader_inputs(tmp_path)
        if with_bom:
            paths[bom].write_bytes(b"\xef\xbb\xbf" + paths[bom].read_bytes())
        code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
        assert code == 0, err
        written = {name: (tmp_path / name).read_bytes()
                   for name in sorted(os.listdir(tmp_path)) if name.startswith("out")}
        return out, written

    plain = outputs(False)
    assert plain[0] or plain[1]
    assert outputs(True) == plain


# Inputs whose first word keeps a U+FEFF after the one leading BOM each
# reader drops: a SEPP file cannot begin with it, so no output is written.
_BOM_LED_CASES = {
    "segment-emit-sepp": (["segment", "{stream}", "--classifier", "replay:{pred}",
                           "--emit-sepp", "{tmp}/new.tsv"], {"stream": 2, "pred": 3}),
    "prepare-truecase-model": (["prepare", "{raw}", "--out", "{tmp}/out.tsv",
                                "--truecase-model", "{tmp}/new.tsv"], {"raw": 2}),
    "classify": (["classify", "{gold}", "--classifier", "replay:{gold}"], {"gold": 3}),
    # seed 2 puts the first sentence in the test part, which is written second
    "split-test-part": (["split", "{gold}", "--train-out", "{tmp}/a.tsv", "--test-out",
                         "{tmp}/b.tsv", "--seed", "2"], {"gold": 3}),
}


@pytest.mark.parametrize("argv, boms", _BOM_LED_CASES.values(), ids=_BOM_LED_CASES.keys())
def test_a_first_word_led_by_a_byte_order_mark_is_a_coded_error_with_no_output(
    tmp_path, capsys, argv, boms
):
    paths = _reader_inputs(tmp_path)
    for name, count in boms.items():
        paths[name].write_bytes(b"\xef\xbb\xbf" * count + paths[name].read_bytes())
    before = sorted(os.listdir(tmp_path))
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 1
    assert err.startswith("error: [")
    assert "Traceback" not in err
    assert out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize(
    "argv, stdin, code, stream, prefix",
    [
        (["--help"], None, 0, "stdout", "usage: puncseg"),
        (["classify", "{tmp}/absent.tsv"], None, 1, "stderr", "error: "),
        (["frobnicate"], None, 2, "stderr", "usage: puncseg"),
        (
            ["segment", "/dev/stdin", "--classifier", "replay:{tmp}/gold.tsv", "--window", "2"],
            "a b c d\n", 0, "stdout", "a b.\nc d.\n",
        ),
    ],
    ids=["help", "missing-input", "unknown-subcommand", "segment-piped-stdin"],
)
def test_python_dash_m_puncseg_runs_the_cli(tmp_path, argv, stdin, code, stream, prefix):
    import puncseg

    src = str(Path(puncseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    gold = document_for(["a", "b", "c", "d"], {1: P, 3: P})
    atomic_write(tmp_path / "gold.tsv", write_sepp(gold))
    argv = [arg.format(tmp=tmp_path) for arg in argv]

    def puncseg_run(args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "puncseg", *args],
            env=env, input=stdin, capture_output=True, text=True,
        )

    done = puncseg_run(argv, stdin)
    assert done.returncode == code
    assert getattr(done, stream).startswith(prefix)
    if stdin is not None:  # a pipe reads as the same words in a regular file
        words = tmp_path / "words.txt"
        words.write_text(stdin, encoding="utf-8")
        from_file = puncseg_run([str(words) if a == "/dev/stdin" else a for a in argv])
        assert from_file.returncode == 0
        assert done.stdout == from_file.stdout

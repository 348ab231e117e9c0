import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fastweight import backbone as bb
from fastweight import harness
from fastweight import training as tr
from fastweight.checkpoint import load_checkpoint, save_checkpoint
from fastweight.cli import main
from fastweight.corpus import ingest, make_entity_corpus


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "train.txt").write_text(make_entity_corpus(24, seed=5))
    (d / "dev.txt").write_text(make_entity_corpus(6, seed=6))
    rc = main([
        "train", "--train", str(d / "train.txt"), "--dev", str(d / "dev.txt"),
        "--out", str(d / "run"), "--tokenizer", "word",
        "--d-model", "16", "--n-layers", "1", "--n-heads", "2", "--d-ff", "32",
        "--d-hidden", "16", "--max-seq-len", "32", "--chunk-size", "16",
        "--total-steps", "8", "--batch-size", "2", "--seq-len", "24",
        "--eval-every", "4", "--seed", "7",
    ])
    assert rc == 0
    return d


def test_train_wrote_checkpoints_and_metrics(workdir):
    assert os.path.exists(workdir / "run" / "final.ckpt")
    assert os.path.exists(workdir / "run" / "best.ckpt")
    lines = (workdir / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 8
    rec = json.loads(lines[0])
    assert {"step", "loss", "ppl", "grad_norm", "alphas", "wall_ms"} <= set(rec)


def test_score_all_variants(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    for variant, extra in [("baseline", []), ("fwl", []),
                           ("test-time-only", ["--global-step", "0.01"]),
                           ("bias-only", [])]:
        rc = main(["score", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
                   "--variant", variant] + extra)
        assert rc == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["perplexity"] > 0


def test_score_writes_nll_stream(workdir, tmp_path, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    out_file = tmp_path / "nll.jsonl"
    rc = main(["score", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
               "--variant", "fwl", "--nll-out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    rows = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert len(rows) == 6
    assert all(x >= 0 for x in rows[0])


def test_generate_deterministic(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    args = ["generate", "--ckpt", ckpt, "--prompt", "belardan saw",
            "--n-tokens", "8", "--temperature", "0.8", "--seed", "3"]
    assert main(args) == 0
    first, err = capsys.readouterr()
    assert err == "warning: 1 prompt token(s) outside the vocabulary were mapped to <unk>\n"
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("flag, value", [("--n-tokens", "-1"), ("--temperature", "-1"),
                                         ("--temperature", "nan"), ("--seed", "-1")])
def test_bad_generate_argument_is_config_error(workdir, capsys, flag, value):
    rc = main(["generate", "--ckpt", str(workdir / "run" / "final.ckpt"),
               "--prompt", "belardan saw", flag, value])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


def test_subnormal_temperature_samples_the_argmax(workdir, capsys):
    # was NaN probabilities; every logit but the largest overflows to -inf
    outs = []
    for temperature in ("1e-320", "0"):
        rc = main(["generate", "--ckpt", str(workdir / "run" / "final.ckpt"),
                   "--prompt", "saw", "--n-tokens", "6", "--temperature", temperature])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(temperature=st.floats(), seed=st.integers(), n_tokens=st.integers(-2, 4))
def test_fuzzed_generate_exits_zero_or_one(workdir, capsys, temperature, seed, n_tokens):
    # "--flag=value", so that argparse reads "-inf" or "-1e-05" as a value
    rc = main(["generate", "--ckpt", str(workdir / "run" / "final.ckpt"), "--prompt", "saw",
               f"--temperature={temperature!r}", f"--seed={seed}", f"--n-tokens={n_tokens}"])
    err = capsys.readouterr().err
    assert rc in (0, 1)
    assert "Traceback" not in err
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("variant", ["test-time-only", "bias-only"])
def test_generate_rejects_other_variants(workdir, capsys, variant):
    rc = main(["generate", "--ckpt", str(workdir / "run" / "final.ckpt"),
               "--prompt", "belardan saw", "--variant", variant])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "invalid choice" in err and "Traceback" not in err
    assert out == ""


def test_dyneval_runs(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    rc = main(["dyneval", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
               "--step-size", "0.01", "--chunk-len", "16"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out.strip())["perplexity"] > 0


def test_analyze_writes_csv(workdir, tmp_path, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    out_csv = tmp_path / "buckets.csv"
    rc = main(["analyze", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
               "--csv", str(out_csv)])
    printed = json.loads(capsys.readouterr().out)
    assert rc == 0
    header = out_csv.read_text().splitlines()[0].split(",")
    assert header[0] == "family"
    # the same report computed in-process: the CSV byte for byte, and the
    # printed summary rounded as the command rounds it
    loaded = load_checkpoint(ckpt)
    corpus = ingest(workdir / "dev.txt", loaded.tokenizer)
    report = harness.analyze(harness.score(loaded, corpus, "baseline").nll_docs,
                             harness.score(loaded, corpus, "fwl").nll_docs, corpus)
    assert out_csv.read_bytes() == report.csv().encode()
    deciles = report.position_deciles
    assert printed == {
        "repeat_fraction": round(report.repeat_fraction, 4),
        "tokens": report.n_tokens,
        "occurrence": {b["bucket"]: round(b["improvement"], 5)
                       for b in report.occurrence_buckets},
        "first_decile_improvement": round(deciles[0]["improvement"], 5),
        "last_decile_improvement": round(deciles[-1]["improvement"], 5)}


def test_bench_reports(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    rc = main(["bench", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
               "--max-docs", "2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["flops_per_token"]["fwl_total"] > rep["flops_per_token"]["baseline_total"]


def test_verify_exit_zero(capsys):
    rc = main(["verify", "--instances", "4", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS  generation/scoring consistency" in out


@pytest.mark.parametrize("args", [
    ["verify", "--seed", "-1"],
    ["verify", "--instances", "0"],   # printed PASS over 0 instances
    ["bench", "--max-docs", "0"],     # benched every document
    ["bench", "--max-docs", "-1"],    # dropped the last document
], ids=["verify-seed", "verify-instances", "bench-max-docs-0", "bench-max-docs-negative"])
def test_bad_verify_or_bench_argument_is_config_error(workdir, capsys, args):
    if args[0] == "bench":
        args = args + ["--ckpt", str(workdir / "run" / "final.ckpt"),
                       "--corpus", str(workdir / "dev.txt")]
    rc = main(args)
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


def test_missing_corpus_is_io_error(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    rc = main(["score", "--ckpt", ckpt, "--corpus", "/no/such/file.txt"])
    capsys.readouterr()
    assert rc == 2


def test_bad_ckpt_magic_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    rc = main(["score", "--ckpt", str(bad), "--corpus", str(bad)])
    capsys.readouterr()
    assert rc == 1


def test_usage_error_exit_one(capsys):
    rc = main(["score"])  # missing required args
    capsys.readouterr()
    assert rc == 1


def test_truncated_ckpt_is_config_error(workdir, tmp_path, capsys):
    data = (workdir / "run" / "final.ckpt").read_bytes()
    cut = tmp_path / "half.ckpt"
    cut.write_bytes(data[:len(data) // 2])
    rc = main(["score", "--ckpt", str(cut), "--corpus", str(workdir / "dev.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "truncated or corrupt" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("d_model", ["16", "8"])
def test_resume_needs_the_checkpoint_model_settings(workdir, tmp_path, capsys, d_model):
    # workdir's run was trained with these settings and d_model 16
    rc = main(["train", "--train", str(workdir / "train.txt"), "--out", str(tmp_path / "run"),
               "--tokenizer", "word", "--resume", str(workdir / "run" / "final.ckpt"),
               "--d-model", d_model, "--n-layers", "1", "--n-heads", "2", "--d-ff", "32",
               "--d-hidden", "16", "--max-seq-len", "32", "--chunk-size", "16",
               "--total-steps", "9", "--batch-size", "2", "--seq-len", "24", "--seed", "7"])
    err = capsys.readouterr().err
    if d_model == "16":
        assert rc == 0 and os.path.exists(tmp_path / "run" / "final.ckpt")
        return
    assert rc == 1
    assert err.startswith("error: model settings ['d_model'] differ")
    assert not os.path.exists(tmp_path / "run")


def test_binary_corpus_is_config_error(workdir, tmp_path, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(bytes(range(256)))
    rc = main(["score", "--ckpt", ckpt, "--corpus", str(binary)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "not UTF-8" in err
    assert "Traceback" not in err


def _resaved(workdir, tmp_path, edit):
    """The trained checkpoint, edited by edit(model) and saved again."""
    snap = load_checkpoint(workdir / "run" / "final.ckpt")
    edit(snap.model)
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, snap.model, snap.train_config, snap.opt_state, snap.step,
                    snap.tokenizer)
    return str(path)


def test_ckpt_missing_tensor_is_config_error(workdir, tmp_path, capsys):
    def two_layer_config(model):  # metadata asks for a layer the tensors lack
        bcfg = dataclasses.replace(model.config.backbone, n_layers=2)
        model.config = dataclasses.replace(model.config, backbone=bcfg)

    ckpt = _resaved(workdir, tmp_path, two_layer_config)
    rc = main(["score", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bb.layers.1.ln1_g" in err
    assert "Traceback" not in err


def test_ckpt_misshapen_tensor_is_config_error(workdir, tmp_path, capsys):
    def wide_embedding(model):
        model.backbone.tok_emb = np.zeros((model.backbone.tok_emb.shape[0], 17))

    ckpt = _resaved(workdir, tmp_path, wide_embedding)
    rc = main(["score", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bb.tok_emb" in err and "17)" in err
    assert "Traceback" not in err


def test_bias_only_scoring_of_a_model_without_c_is_config_error(workdir, tmp_path, capsys):
    # a model holds step sizes only for its fast tensors; bias-only scoring of
    # a model without c used to read c's untrained alpha_init
    def mask_u(model):
        model.config = dataclasses.replace(model.config, mask=("U",))

    ckpt = _resaved(workdir, tmp_path, mask_u)
    rc = main(["score", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
               "--variant", "bias-only"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "['c']" in err
    assert out == ""


def test_score_non_finite_perplexity_is_numerical_error(workdir, tmp_path, capsys):
    def huge_steps(model):
        for n in model.alpha:
            model.alpha[n][...] = 1e6

    ckpt = _resaved(workdir, tmp_path, huge_steps)
    rc = main(["score", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
               "--variant", "fwl"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "perplexity" in err and "Traceback" not in err
    assert out == ""


def test_dyneval_non_finite_perplexity_is_numerical_error(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    rc = main(["dyneval", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
               "--step-size", "1e4", "--chunk-len", "16"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "perplexity" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("args", [
    ["dyneval", "--step-size", "inf"],   # printed numpy warnings, then exit 3
    ["dyneval", "--step-size", "nan"],
    ["bench", "--dyneval-step", "nan", "--max-docs", "1"],   # exited 0
    ["score", "--variant", "test-time-only", "--global-step", "inf"],  # warnings, exit 3
    ["score", "--variant", "test-time-only", "--global-step", "nan"],  # exited 3
], ids=["dyneval-inf", "dyneval-nan", "bench-nan", "score-inf", "score-nan"])
def test_non_finite_dyneval_step_is_config_error(workdir, capsys, args):
    rc = main(args + ["--ckpt", str(workdir / "run" / "final.ckpt"),
                      "--corpus", str(workdir / "dev.txt")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


def test_overflowing_dyneval_step_is_numerical_error_without_warnings(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    for args in (["dyneval", "--step-size", "1e300", "--chunk-len", "16"],
                 ["score", "--variant", "test-time-only", "--global-step", "1e300"]):
        rc = main(args + ["--ckpt", ckpt, "--corpus", str(workdir / "dev.txt")])
        out, err = capsys.readouterr()
        assert rc == 3, args
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
        assert "RuntimeWarning" not in err and "warning" not in err
        assert out == ""


@pytest.mark.parametrize("how", [["--max-seq-len", "20"], ["--config", "model.json"]],
                         ids=["flag", "config"])
def test_train_defaults_seq_len_to_max_seq_len(workdir, tmp_path, capsys, how):
    # scoring cuts max_seq_len segments, so training reaches every position
    (tmp_path / "model.json").write_text('{"model": {"max_seq_len": 20}}')
    how = [str(tmp_path / a) if a.endswith(".json") else a for a in how]
    rc = main(["train", "--train", str(workdir / "train.txt"), "--out", str(tmp_path / "run"),
               "--tokenizer", "word", "--d-model", "8", "--n-layers", "1", "--n-heads", "2",
               "--d-ff", "8", "--d-hidden", "8", "--total-steps", "1", "--batch-size", "1",
               *how])
    capsys.readouterr()
    assert rc == 0
    snap = load_checkpoint(tmp_path / "run" / "final.ckpt")
    assert snap.train_config.seq_len == snap.model.config.backbone.max_seq_len == 20


def test_training_length_above_max_seq_len_is_refused_before_any_output(workdir, tmp_path,
                                                                         capsys):
    # the resume checkpoint does not exist: the length check comes first
    rc = main(["train", "--train", str(workdir / "train.txt"), "--out", str(tmp_path / "run"),
               "--tokenizer", "word", "--seq-len", "200", "--max-seq-len", "32",
               "--total-steps", "1", "--resume", str(tmp_path / "missing.ckpt")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "max_seq_len 32" in err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("text", [
    '{"train": {"learning_rat": 0.1}}',   # misspelt TrainConfig field
    '{"train": {"learning_rate": 0.1',     # not JSON
    '{"model": {"d_hiden": 8}}',           # misspelt ModelConfig field
    '[{"train": {}}]',                     # top level is not an object
    '{"train": {"learning_rate": "x"}}',   # a string for a float
    '{"model": {"d_model": "8"}}',         # a string for an int
    '{"model": {"mask": 5}}',              # a number for a list of tensor names
    '{"train": {"eval_every": 0}}',        # was a ZeroDivisionError in fit
    '{"train": {"beta1": 1.0}}',           # was NaN step sizes, exit 3
    '{"train": {"beta2": -0.1}}',
    '{"train": {"eps": 0}}',
    '{"train": {"weight_decay": -1e-3}}',
    '{"train": {"learning_rate": NaN}}',   # Python's json reads NaN
    '{"train": {"seed": -1}}',             # was a ValueError from numpy's rng
    '{"model": {"vocab_size": 999}}',      # the corpus sets it; score refused the model
    '{"model": {"alpha_init": NaN}}',      # trained, then exit 3 on a non-finite loss
    '{"model": {"alpha_init": Infinity}}',
], ids=["unknown-train-key", "malformed-json", "unknown-model-key", "not-an-object",
        "str-learning-rate", "str-d-model", "int-mask", "eval-every-0", "beta1-1",
        "beta2-negative", "eps-0", "weight-decay-negative", "nan-learning-rate",
        "negative-seed", "vocab-size", "nan-alpha-init", "inf-alpha-init"])
def test_bad_train_config_is_config_error(workdir, tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    rc = main(["train", "--train", str(workdir / "train.txt"), "--out", str(tmp_path / "run"),
               "--tokenizer", "word", "--config", str(config), "--total-steps", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "run")


_CONFIG_FIELDS = {
    "train": [f.name for f in dataclasses.fields(tr.TrainConfig)],
    "model": [f.name for c in (tr.ModelConfig, bb.BackboneConfig)
              for f in dataclasses.fields(c) if f.name != "backbone"],
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.fixed_dictionaries({}, optional={
    section: st.dictionaries(st.sampled_from(names), _JSON_VALUES, max_size=4)
    for section, names in _CONFIG_FIELDS.items()}))
def test_fuzzed_train_config_exits_zero_or_one(workdir, tmp_path, capsys, monkeypatch, config):
    # any JSON value under any known setting name is a run or a config error;
    # fit is stubbed, so this checks the boundary, not training
    monkeypatch.setattr(tr, "fit", lambda *a, **k: tr.FitResult(None, {}, 0, 1.0))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main(["train", "--train", str(workdir / "train.txt"), "--out", str(tmp_path / "run"),
               "--tokenizer", "word", "--config", str(path), "--total-steps", "1"])
    err = capsys.readouterr().err
    assert rc in (0, 1)
    assert "Traceback" not in err
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1

import dataclasses
import json
import os

import numpy as np
import pytest

from fastweight.checkpoint import load_checkpoint, save_checkpoint
from fastweight.cli import main
from fastweight.corpus import make_entity_corpus


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
    lines = open(workdir / "run" / "metrics.jsonl").read().splitlines()
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
    rows = [json.loads(l) for l in open(out_file)]
    assert len(rows) == 6
    assert all(x >= 0 for x in rows[0])


def test_generate_deterministic(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    args = ["generate", "--ckpt", ckpt, "--prompt", "belardan saw",
            "--n-tokens", "8", "--temperature", "0.8", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


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
    capsys.readouterr()
    assert rc == 0
    header = open(out_csv).readline().strip().split(",")
    assert header[0] == "family"


def test_bench_reports(workdir, capsys):
    ckpt = str(workdir / "run" / "final.ckpt")
    rc = main(["bench", "--ckpt", ckpt, "--corpus", str(workdir / "dev.txt"),
               "--max-docs", "2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["flops_per_token"]["fwl_total"] > rep["flops_per_token"]["baseline_total"]


def test_verify_exit_zero(capsys):
    rc = main(["verify", "--instances", "4", "--seed", "1"])
    capsys.readouterr()
    assert rc == 0


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


def test_score_non_finite_perplexity_is_numerical_error(workdir, tmp_path, capsys):
    def huge_steps(model):
        for n in model.alpha:
            model.alpha[n] = np.float64(1e6)

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


@pytest.mark.parametrize("text", [
    '{"train": {"learning_rat": 0.1}}',   # misspelt TrainConfig field
    '{"train": {"learning_rate": 0.1',     # not JSON
    '{"model": {"d_hiden": 8}}',           # misspelt ModelConfig field
    '[{"train": {}}]',                     # top level is not an object
], ids=["unknown-train-key", "malformed-json", "unknown-model-key", "not-an-object"])
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

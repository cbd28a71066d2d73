"""Command-line surface: every subcommand end to end, exit codes, the
environment config file, and byte-level reproducibility of outputs."""

import io
import json
import os
import shutil
import subprocess
import sys
import threading
import zipfile
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

import lexchain
from lexchain import model as model_module
from lexchain.chains import (
    SentencingRange,
    chain_from_text,
    ChainSet,
    parse_chain_file,
    serialize_chain_set,
)
from lexchain.cli import CONFIG_ENV, default_chains_dir, main

RESPONSE = """\
Here are the chains.

===CHAIN===
PREMISE: used violence against the victim AND seized property of another
SITUATION: no aggravating circumstance was present
CONCLUSION: range: 36-120 months; label: base
SOURCE: Article 263
"""


@pytest.fixture(scope="module", autouse=True)
def _no_env_config():
    """Keep the caller's CHAIN_REASONER_CONFIG away from every in-process
    ``main`` call, the module-scoped workspace included; tests that need the
    variable set it themselves."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV, raising=False)
        yield


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One charge's chain file, a small synthetic corpus, and a checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    chains_dir = root / "chains"
    chains_dir.mkdir()
    shutil.copy(default_chains_dir() / "dangerous_driving.json",
                chains_dir / "dangerous_driving.json")
    corpus = root / "corpus.jsonl"
    assert main(["synth-corpus", "--chains", str(chains_dir), "--seed", "0",
                 "--cases-per-charge", "5", "--out", str(corpus)]) == 0
    checkpoint = root / "model.ckpt"
    log = root / "train.csv"
    assert main(["train", "--corpus", str(corpus), "--chains", str(chains_dir),
                 "--checkpoint", str(checkpoint), "--log", str(log),
                 "--epochs", "1", "--batch-size", "2", "--d", "16", "--heads", "2",
                 "--dec-heads", "2", "--layers", "1", "--context", "224",
                 "--dropout", "0.0", "--max-len", "40"]) == 0
    return {"root": root, "chains": chains_dir, "corpus": corpus,
            "checkpoint": checkpoint, "log": log}


def _train_args(ws, checkpoint, **extra):
    args = ["train", "--corpus", str(ws["corpus"]), "--chains", str(ws["chains"]),
            "--checkpoint", str(checkpoint), "--epochs", "1", "--batch-size", "2",
            "--d", "16", "--heads", "2", "--dec-heads", "2", "--layers", "1",
            "--context", "224", "--dropout", "0.0", "--max-len", "40"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestUsageAndHelp:
    """Exit codes for the argparse surface itself."""

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "COMMAND" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("extract-prompt", "train", "screen", "gradcheck"):
            assert command in out

    def test_subcommand_help(self, capsys):
        assert main(["train", "--help"]) == 0
        assert "--no-chains" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["synth-corpus", "--bogus", "1"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["synth-corpus"]) == 1
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth-corpus", "train", "generate", "gradcheck"])
    def test_negative_seed_is_usage_error(self, workspace, tmp_path, capsys, command):
        args = {"synth-corpus": ["--out", str(tmp_path / "c.jsonl")],
                "train": _train_args(workspace, tmp_path / "m.ckpt")[1:],
                "generate": ["--checkpoint", str(workspace["checkpoint"]),
                             "--corpus", str(workspace["corpus"])],
                "gradcheck": ["--d", "8", "--heads", "2", "--layers", "1"]}[command]
        assert main([command, *args, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and "--seed" in captured.err
        assert captured.out == ""

    def test_console_script_installed(self):
        """The declared `lexchain` console script, run as its own process the
        way the installed wrapper runs it, exits 0 on --help and prints it.

        The wrapper is emulated rather than looked up on PATH so that the
        child imports this tree, installed or not, and runs without the
        caller's config file.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"lexchain": "lexchain.cli:main"}
        module, _, attr = scripts["lexchain"].partition(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'lexchain'; sys.exit({attr}())")
        env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV}
        env["PYTHONPATH"] = str(Path(lexchain.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "COMMAND" in proc.stdout
        assert proc.stdout.startswith("usage: lexchain")


class TestExtractPrompt:
    def test_prompt_to_file(self, tmp_path):
        provision = tmp_path / "provision.txt"
        provision.write_text("Whoever robs public or private property ...",
                             encoding="utf-8")
        out = tmp_path / "prompt.txt"
        assert main(["extract-prompt", "--charge", "robbery",
                     "--provision-file", str(provision), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "robbery" in text
        assert "Whoever robs" in text
        assert "===CHAIN===" in text

    def test_prompt_to_stdout(self, tmp_path, capsys):
        provision = tmp_path / "provision.txt"
        provision.write_text("some provision text", encoding="utf-8")
        assert main(["extract-prompt", "--charge", "theft",
                     "--provision-file", str(provision)]) == 0
        assert "some provision text" in capsys.readouterr().out

    def test_missing_provision_file_is_io_error(self, tmp_path, capsys):
        assert main(["extract-prompt", "--charge", "x",
                     "--provision-file", str(tmp_path / "nope.txt")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_endpoint_round_trip(self, tmp_path):
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                self.rfile.read(length)
                payload = json.dumps({"text": RESPONSE}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            provision = tmp_path / "provision.txt"
            provision.write_text("robbery provision", encoding="utf-8")
            out = tmp_path / "robbery.json"
            code = main(["extract-prompt", "--charge", "robbery",
                         "--provision-file", str(provision),
                         "--llm-endpoint", f"http://127.0.0.1:{server.server_port}/v1",
                         "--out", str(out)])
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        chain_set = parse_chain_file(out.read_text(encoding="utf-8"))
        assert chain_set.charge == "robbery"
        assert chain_set.chains[0].conclusion == SentencingRange(36, 120, "base")

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_timeout_not_positive_and_finite_exits_two(self, tmp_path, monkeypatch, capsys,
                                                       source, timeout):
        """The socket layer refuses such a timeout with a ValueError or an
        OverflowError (0 would make the socket non-blocking), which used to
        end in a traceback.  The client refuses it before any request, so
        the endpoint is never contacted."""
        provision = tmp_path / "provision.txt"
        provision.write_text("robbery provision", encoding="utf-8")
        args = ["extract-prompt", "--charge", "robbery", "--provision-file", str(provision),
                "--llm-endpoint", "http://127.0.0.1:9/v1"]
        if source == "flag":
            args += ["--timeout", timeout]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"timeout": timeout}), encoding="utf-8")
            monkeypatch.setenv(CONFIG_ENV, str(config))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: timeout must be a positive, finite number of seconds, " \
                      f"got {float(timeout)}\n"


class TestParseChains:
    def test_valid_response_becomes_chain_file(self, tmp_path):
        response = tmp_path / "response.txt"
        response.write_text(RESPONSE, encoding="utf-8")
        out = tmp_path / "robbery.json"
        assert main(["parse-chains", "--charge", "robbery",
                     "--response-file", str(response), "--out", str(out)]) == 0
        chain_set = parse_chain_file(out.read_text(encoding="utf-8"))
        assert chain_set.charge == "robbery"
        assert len(chain_set.chains) == 1

    def test_partial_response_warns_but_succeeds(self, tmp_path, capsys):
        response = tmp_path / "response.txt"
        response.write_text(RESPONSE + "\n===CHAIN===\nPREMISE: only a premise\n",
                            encoding="utf-8")
        out = tmp_path / "robbery.json"
        assert main(["parse-chains", "--charge", "robbery",
                     "--response-file", str(response), "--out", str(out)]) == 0
        assert "note:" in capsys.readouterr().err
        assert len(parse_chain_file(out.read_text(encoding="utf-8")).chains) == 1

    def test_unusable_response_is_validation_failure(self, tmp_path, capsys):
        response = tmp_path / "response.txt"
        response.write_text("no chain blocks at all", encoding="utf-8")
        assert main(["parse-chains", "--charge", "robbery",
                     "--response-file", str(response)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_response_file_is_io_error(self, tmp_path):
        assert main(["parse-chains", "--charge", "x",
                     "--response-file", str(tmp_path / "gone.txt")]) == 3


class TestValidateChains:
    def test_packaged_library_is_clean(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["validate-chains", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["ok"] is True
        assert len(report["reports"]) >= 10

    def test_violating_library_exits_two(self, tmp_path):
        bad = ChainSet(charge="badcharge", chains=[
            chain_from_text("stole goods", "stole goods",
                            SentencingRange(1, 10, "x"), "Provision 9"),
        ])
        chains_dir = tmp_path / "chains"
        chains_dir.mkdir()
        (chains_dir / "badcharge.json").write_text(serialize_chain_set(bad),
                                                   encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["validate-chains", "--chains", str(chains_dir),
                     "--out", str(out)]) == 2
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["ok"] is False


class TestSynthCorpus:
    def test_writes_jsonl_and_summary(self, workspace, capsys):
        out = workspace["root"] / "fresh.jsonl"
        assert main(["synth-corpus", "--chains", str(workspace["chains"]),
                     "--seed", "3", "--cases-per-charge", "4",
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 4
        record = json.loads(lines[0])
        assert record["charge"] == "dangerous_driving"
        summary = json.loads(capsys.readouterr().out)
        assert summary["cases"] == 4
        assert summary["seed"] == 3

    def test_unknown_chains_dir_is_io_error(self, tmp_path):
        assert main(["synth-corpus", "--chains", str(tmp_path / "void"),
                     "--out", str(tmp_path / "x.jsonl")]) in (2, 3)

    @pytest.mark.parametrize("flag, value", [("--distractors", "9"), ("--distractors", "-1"),
                                             ("--cases-per-charge", "-2"),
                                             ("--cases-per-charge", "0")])
    def test_count_outside_its_range_exits_two(self, workspace, tmp_path, capsys, flag, value):
        """There are six distractor sentences and at least one case per charge
        is drawn; any other count is refused before a case is drawn."""
        out = tmp_path / "x.jsonl"
        assert main(["synth-corpus", "--chains", str(workspace["chains"]), flag, value,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestTrain:
    def test_reports_resolved_config_and_losses(self, workspace, capsys):
        ckpt = workspace["root"] / "fresh.ckpt"
        assert main(_train_args(workspace, ckpt, seed=1)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 1
        assert payload["config"]["d"] == 16
        assert payload["train_cases"] == 4
        assert payload["test_cases"] == 1
        assert payload["final"]["epoch"] == 1
        assert payload["final"]["loss_total"] > 0
        assert ckpt.exists()

    def test_log_csv_written(self, workspace):
        header = workspace["log"].read_text(encoding="utf-8").split("\n")[0]
        assert header == "epoch,loss_total,loss_reasoning,loss_sentencing,heldout_mae,heldout_rmse"

    def test_no_chains_ablation_flag(self, workspace, capsys):
        ckpt = workspace["root"] / "nochains.ckpt"
        assert main(_train_args(workspace, ckpt) + ["--no-chains"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["use_chains"] is False

    def test_invalid_hyperparameters_exit_two(self, workspace):
        ckpt = workspace["root"] / "never.ckpt"
        assert main(_train_args(workspace, ckpt, epochs=0)) == 2

    def test_max_len_below_one_exits_two(self, workspace, capsys):
        ckpt = workspace["root"] / "never4.ckpt"
        assert main(_train_args(workspace, ckpt) + ["--max-len", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_gen_len must be at least 1" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("heads", [{"heads": 0}, {"heads": -4, "d": 8}, {"dec_heads": 0}])
    def test_nonpositive_head_count_exits_two(self, workspace, capsys, heads):
        ckpt = workspace["root"] / "never3.ckpt"
        assert main(_train_args(workspace, ckpt, **heads)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be positive" in err
        assert not ckpt.exists()

    def test_missing_corpus_is_io_error(self, workspace):
        args = _train_args(workspace, workspace["root"] / "never2.ckpt")
        args[args.index("--corpus") + 1] = str(workspace["root"] / "gone.jsonl")
        assert main(args) == 3


class TestGenerate:
    def test_writes_opinions_jsonl(self, workspace, capsys):
        out = workspace["root"] / "opinions.jsonl"
        assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                     "--corpus", str(workspace["corpus"]),
                     "--chains", str(workspace["chains"]),
                     "--max-len", "30", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 5
        for line in lines:
            row = json.loads(line)
            assert set(row) == {"case_id", "opinion"}
        summary = json.loads(capsys.readouterr().out)
        assert summary["cases"] == 5
        assert summary["mode"] == "greedy"
        assert summary["use_chains"] is True

    @pytest.mark.parametrize("max_len", ["0", "-3"])
    def test_max_len_below_one_exits_two(self, workspace, tmp_path, capsys, max_len):
        out = tmp_path / "opinions.jsonl"
        assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                     "--corpus", str(workspace["corpus"]),
                     "--chains", str(workspace["chains"]),
                     "--max-len", max_len, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_len must be at least 1" in err
        assert not out.exists()

    def test_stdout_when_no_out_flag(self, workspace, capsys):
        assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                     "--corpus", str(workspace["corpus"]),
                     "--chains", str(workspace["chains"]), "--max-len", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        assert all("case_id" in json.loads(line) for line in lines)

    def test_no_chains_and_topk_modes(self, workspace, capsys):
        assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                     "--corpus", str(workspace["corpus"]), "--no-chains",
                     "--mode", "top-k", "--seed", "9", "--max-len", "10"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 5

    def test_top_k_opinions_equal_a_one_row_decode(self, workspace, tmp_path, monkeypatch):
        """Drafting from the pool changes no byte of the sampled opinions: they
        equal those of a decode that feeds one row per token."""
        outputs = []
        for draft_len in (model_module.DRAFT_LEN, 0):
            monkeypatch.setattr(model_module, "DRAFT_LEN", draft_len)
            out = tmp_path / f"opinions{draft_len}.jsonl"
            assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                         "--corpus", str(workspace["corpus"]),
                         "--chains", str(workspace["chains"]), "--mode", "top-k",
                         "--seed", "5", "--max-len", "40", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_chain_free_checkpoint_decodes_chain_free(self, workspace, tmp_path, capsys):
        """A checkpoint trained with --no-chains never reads the chain library,
        with or without --no-chains at generate time."""
        ckpt = tmp_path / "bare.ckpt"
        assert main(_train_args(workspace, ckpt) + ["--no-chains"]) == 0
        capsys.readouterr()
        outputs = []
        for flags in ([], ["--no-chains"]):
            out = tmp_path / f"opinions{len(flags)}.jsonl"
            assert main(["generate", "--checkpoint", str(ckpt),
                         "--corpus", str(workspace["corpus"]),
                         "--chains", str(tmp_path / "no-such-dir"),
                         "--max-len", "10", "--out", str(out)] + flags) == 0
            assert json.loads(capsys.readouterr().out)["use_chains"] is False
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_no_chains_flag_reported_in_summary(self, workspace, tmp_path, capsys):
        out = tmp_path / "opinions.jsonl"
        assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                     "--corpus", str(workspace["corpus"]), "--no-chains",
                     "--max-len", "10", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["use_chains"] is False

    def test_each_charge_is_encoded_once(self, workspace, tmp_path, monkeypatch):
        """Five cases of one charge take one chain-set encode and give the
        opinions of decoding case by case."""
        from lexchain import model as model_module
        from lexchain.checkpoint import load_checkpoint
        from lexchain.chains import load_chain_library
        from lexchain.corpus import load_jsonl

        encoded = []
        original = model_module.encode_chain_set

        def counting(cs, *args, **kwargs):
            encoded.append(cs.charge)
            return original(cs, *args, **kwargs)

        monkeypatch.setattr(model_module, "encode_chain_set", counting)
        out = tmp_path / "opinions.jsonl"
        assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                     "--corpus", str(workspace["corpus"]), "--chains", str(workspace["chains"]),
                     "--max-len", "12", "--out", str(out)]) == 0
        assert encoded == ["dangerous_driving"]
        model, _ = load_checkpoint(workspace["checkpoint"])
        library = load_chain_library(workspace["chains"])
        want = [{"case_id": rec.case_id,
                 "opinion": model_module.decode_case(model, rec, library[rec.charge],
                                                     max_len=12).text}
                for rec in load_jsonl(workspace["corpus"])]
        assert len(encoded) == 1 + len(want) == 6
        assert [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()] == want

    def test_charge_missing_from_chain_library_exits_two(self, workspace, tmp_path, capsys):
        other = tmp_path / "chains"
        other.mkdir()
        shutil.copy(default_chains_dir() / "theft.json", other / "theft.json")
        assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                     "--corpus", str(workspace["corpus"]), "--chains", str(other)]) == 2
        assert "dangerous_driving" in capsys.readouterr().err

    def test_empty_corpus_exits_two(self, workspace, tmp_path, capsys):
        """As train, evaluate and screen do; it used to print a lone newline
        and exit 0."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                     "--corpus", str(empty), "--chains", str(workspace["chains"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: corpus {empty} holds no cases to decode\n"

    def test_missing_checkpoint_is_io_error(self, workspace):
        assert main(["generate", "--checkpoint", str(workspace["root"] / "none.ckpt"),
                     "--corpus", str(workspace["corpus"]),
                     "--chains", str(workspace["chains"])]) == 3


def _corrupted_checkpoint(source: Path, target: Path, edit=None, drop=(),
                          replace=None) -> Path:
    """Copy a checkpoint archive, editing its manifest, dropping entries and
    replacing the payload of others."""
    with zipfile.ZipFile(source) as zin, zipfile.ZipFile(target, "w") as zout:
        for name in zin.namelist():
            if name in drop:
                continue
            data = replace[name] if replace and name in replace else zin.read(name)
            if name == "manifest.json" and edit is not None:
                manifest = json.loads(data)
                edit(manifest)
                data = json.dumps(manifest).encode("utf-8")
            zout.writestr(name, data)
    return target


def _drop_embed(manifest):
    manifest["params"] = [p for p in manifest["params"] if p["name"] != "embed"]


class TestCorruptCheckpoint:
    """Every malformed checkpoint exits 2 with a message, never a traceback."""

    def _generate(self, workspace, checkpoint, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint),
                     "--corpus", str(workspace["corpus"]),
                     "--chains", str(workspace["chains"]), "--max-len", "5"])
        return code, capsys.readouterr().err

    def test_garbage_file(self, workspace, tmp_path, capsys):
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"this is not a zip archive\n" * 4)
        code, err = self._generate(workspace, garbage, capsys)
        assert code == 2
        assert "not a checkpoint archive" in err

    def test_missing_manifest(self, workspace, tmp_path, capsys):
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt",
                                     drop=("manifest.json",))
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "no manifest.json" in err

    def test_missing_manifest_key(self, workspace, tmp_path, capsys):
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt",
                                     edit=lambda m: m.pop("vocab"))
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "missing keys ['vocab']" in err

    def test_missing_config_key(self, workspace, tmp_path, capsys):
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt",
                                     edit=lambda m: m["config"].pop("layers"))
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "missing keys ['layers']" in err

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt",
                                     edit=lambda m: m["config"].update(width=3))
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "unknown keys ['width']" in err

    def test_missing_embed_array(self, workspace, tmp_path, capsys):
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt",
                                     edit=_drop_embed)
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "embed" in err

    def test_missing_parameter(self, workspace, tmp_path, capsys):
        """Any parameter the config implies, not only ``embed``, must be there."""
        ckpt = _corrupted_checkpoint(
            workspace["checkpoint"], tmp_path / "m.ckpt",
            edit=lambda m: m.update(params=[p for p in m["params"] if p["name"] != "dec.lnf.g"]))
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "missing ['dec.lnf.g']" in err

    def test_misshapen_parameter(self, workspace, tmp_path, capsys):
        """An array whose shape agrees with the manifest but not with the
        config is rejected too."""
        with zipfile.ZipFile(workspace["checkpoint"]) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        spec = next(p for p in manifest["params"] if p["name"] == "dec.0.ffn.W1")
        d = manifest["config"]["d"]
        buf = io.BytesIO()
        np.save(buf, np.zeros((d, 2 * d)), allow_pickle=False)

        def reshape(m):
            next(p for p in m["params"] if p["name"] == "dec.0.ffn.W1")["shape"] = [d, 2 * d]

        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt", edit=reshape,
                                     replace={spec["file"]: buf.getvalue()})
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert f"dec.0.ffn.W1 ({d}, {2 * d}) != ({d}, {4 * d})" in err

    def test_deeply_nested_manifest(self, workspace, tmp_path, capsys):
        deep = ("[" * 100000 + "]" * 100000).encode("utf-8")
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt",
                                     replace={"manifest.json": deep})
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "unreadable manifest.json: nested too deeply" in err

    def test_vocab_without_eos(self, workspace, tmp_path, capsys):
        def rename_eos(m):
            m["vocab"][2] = "<end>"

        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt", edit=rename_eos)
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "vocab must start with ['<pad>', '<unk>', '<eos>']" in err

    def test_vocab_with_repeated_token(self, workspace, tmp_path, capsys):
        def repeat(m):
            m["vocab"][-1] = m["vocab"][-2]

        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt", edit=repeat)
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "vocab holds tokens more than once" in err

    @pytest.mark.parametrize("kind, expected", [
        ("nan", "is not finite at index {index}"),
        ("all-inf", "is not finite at index {first}"),
        ("complex", "has dtype <c16, not <f8"),
        ("bool", "has dtype |b1, not <f8"),
        ("float16", "has dtype <f2, not <f8"),
        ("unicode", "has dtype <U3, not <f8"),
    ], ids=["nan", "all-inf", "complex", "bool", "float16", "unicode"])
    def test_array_values_must_be_finite_float64(self, workspace, tmp_path, capsys, kind,
                                                  expected):
        """The first array of the archive, replaced by one of its own shape
        that holds a NaN, is all inf, or is not float64, is exit 2 naming the
        array and its dtype or first non-finite index."""
        with zipfile.ZipFile(workspace["checkpoint"]) as zf:
            spec = json.loads(zf.read("manifest.json"))["params"][0]
            original = np.load(io.BytesIO(zf.read(spec["file"])))
        shape = original.shape
        index = np.unravel_index(5, shape)
        if kind == "nan":
            array = original.copy()
            array[index] = np.nan
        else:
            array = {"all-inf": lambda: np.full(shape, np.inf),
                     "complex": lambda: original.astype(np.complex128),
                     "bool": lambda: np.ones(shape, dtype=bool),
                     "float16": lambda: original.astype(np.float16),
                     "unicode": lambda: np.full(shape, "1.5")}[kind]()
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=False)
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt",
                                     replace={spec["file"]: buf.getvalue()})
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert f"array {spec['name']!r} " in err
        assert expected.format(index=tuple(int(i) for i in index),
                               first=(0,) * len(shape)) in err

    @pytest.mark.parametrize("edit, expected", [
        (lambda m: m["params"][0].update(file=[m["params"][0]["file"]]),
         "malformed params entry"),
        (lambda m: m["params"][0].update(file={m["params"][0]["file"]: 1}),
         "malformed params entry"),
        (lambda m: m["params"][0].update(shape=None), "malformed params entry"),
        (lambda m: m["params"].append(dict(m["params"][0])), "more than once"),
        (lambda m: m.update(extra=7), "manifest extra is not an object"),
        (lambda m: m.update(extra=["train_config"]), "manifest extra is not an object"),
    ], ids=["file-array", "file-object", "shape-null", "repeated-name", "extra-int",
            "extra-array"])
    def test_malformed_manifest_entry_names_the_archive(self, workspace, tmp_path, capsys,
                                                         edit, expected):
        """A params entry whose ``file`` is not a string or whose ``shape`` is not
        a list, a name listed twice, and an ``extra`` that is not an object each
        exit 2 with one line naming the archive."""
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt", edit=edit)
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert str(ckpt) in err and expected in err

    def test_manifest_shape_that_disagrees_with_its_array_names_the_archive(
            self, workspace, tmp_path, capsys):
        def widen(m):
            spec = next(p for p in m["params"] if p["name"] == "dec.lnf.g")
            spec["shape"] = [spec["shape"][0] + 1]

        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt", edit=widen)
        with zipfile.ZipFile(ckpt) as zf:
            d = json.loads(zf.read("manifest.json"))["config"]["d"]
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert f"{ckpt} array 'dec.lnf.g' has shape ({d},), manifest says [{d + 1}]" in err

    def test_more_layers_than_arrays(self, workspace, tmp_path, capsys):
        """A layer count no archive could hold is refused before the expected
        layout, which grows with it, is built."""
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt",
                                     edit=lambda m: m["config"].update(layers=10 ** 4))
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 2
        assert "config has more layers than params entries" in err

    def test_untouched_copy_still_loads(self, workspace, tmp_path, capsys):
        ckpt = _corrupted_checkpoint(workspace["checkpoint"], tmp_path / "m.ckpt")
        code, err = self._generate(workspace, ckpt, capsys)
        assert code == 0, err


def _gold_opinions_file(corpus_path: Path, out_path: Path) -> Path:
    lines = []
    for line in corpus_path.read_text(encoding="utf-8").strip().split("\n"):
        record = json.loads(line)
        lines.append(json.dumps({"case_id": record["case_id"],
                                 "opinion": record["opinion"]},
                                sort_keys=True, ensure_ascii=False))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_path


class TestEvaluate:
    def test_gold_opinions_score_perfectly(self, workspace, tmp_path, capsys):
        opinions = _gold_opinions_file(workspace["corpus"], tmp_path / "gold.jsonl")
        out = tmp_path / "report.json"
        assert main(["evaluate", "--corpus", str(workspace["corpus"]),
                     "--opinions", str(opinions), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["mae"] == 0.0
        assert report["rouge1"] == 1.0
        assert report["bleu4"] == 1.0
        assert report["config"]["corpus"] == str(workspace["corpus"])

    @pytest.mark.parametrize("command", ["evaluate", "screen"])
    def test_incomplete_opinions_is_usage_error(self, workspace, tmp_path, capsys, command):
        opinions = tmp_path / "partial.jsonl"
        opinions.write_text(json.dumps({"case_id": "dangerous_driving-0000",
                                        "opinion": "x"}) + "\n", encoding="utf-8")
        assert main([command, "--corpus", str(workspace["corpus"]),
                     "--opinions", str(opinions)]) == 1
        assert ("usage error: opinions file lacks case ids: ['dangerous_driving-0001', "
                "'dangerous_driving-0002', 'dangerous_driving-0003', 'dangerous_driving-0004']"
                in capsys.readouterr().err)

    def test_malformed_opinions_line_is_usage_error(self, workspace, tmp_path):
        opinions = tmp_path / "broken.jsonl"
        opinions.write_text("{not json}\n", encoding="utf-8")
        assert main(["evaluate", "--corpus", str(workspace["corpus"]),
                     "--opinions", str(opinions)]) == 1

    def test_deeply_nested_opinions_line_is_usage_error(self, workspace, tmp_path, capsys):
        opinions = tmp_path / "deep.jsonl"
        opinions.write_text("[" * 100000 + "]" * 100000 + "\n", encoding="utf-8")
        assert main(["evaluate", "--corpus", str(workspace["corpus"]),
                     "--opinions", str(opinions)]) == 1
        assert f"{opinions}:1: not valid JSON: nested too deeply" in capsys.readouterr().err

    def test_duplicate_case_id_is_usage_error(self, workspace, tmp_path, capsys):
        opinions = _gold_opinions_file(workspace["corpus"], tmp_path / "gold.jsonl")
        lines = opinions.read_text(encoding="utf-8").splitlines()
        opinions.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
        assert main(["evaluate", "--corpus", str(workspace["corpus"]),
                     "--opinions", str(opinions)]) == 1
        err = capsys.readouterr().err
        assert f"{opinions}:{len(lines) + 1}: duplicate case_id" in err
        assert "(first at line 2)" in err


class TestScreen:
    def test_gold_defaults_reach_perfect_combined_score(self, workspace, tmp_path):
        out = tmp_path / "screen.json"
        assert main(["screen", "--corpus", str(workspace["corpus"]),
                     "--chains", str(workspace["chains"]), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["combined_score"] == 100.0
        assert len(report["cases"]) == 5
        assert report["config"]["opinions"] is None

    def test_explicit_opinions_file(self, workspace, tmp_path):
        opinions = _gold_opinions_file(workspace["corpus"], tmp_path / "gold.jsonl")
        out = tmp_path / "screen.json"
        assert main(["screen", "--corpus", str(workspace["corpus"]),
                     "--chains", str(workspace["chains"]),
                     "--opinions", str(opinions), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["sentencing_accuracy"] == 100.0


@pytest.mark.parametrize("command, runs", [
    (["generate", "--max-len", "10"], "decode_cases"),
    (["gradcheck", "--d", "4", "--heads", "1", "--layers", "1"], "gradcheck_full_pipeline"),
])
def test_openblas_runs_on_one_thread_inside_the_command(workspace, monkeypatch, capsys, command,
                                                        runs):
    """``lexchain generate`` decodes, and ``lexchain gradcheck`` checks, with
    OpenBLAS on one thread, and the caller's thread count is back after."""
    from lexchain import cli, training
    blas = training._openblas_threads()
    if blas is None:
        pytest.skip("numpy is not linked to OpenBLAS")
    seen = []
    original = getattr(cli, runs)

    def recording(*args, **kwargs):
        seen.append(blas[0]())
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, runs, recording)
    if command[0] == "generate":
        command = command + ["--checkpoint", str(workspace["checkpoint"]),
                             "--corpus", str(workspace["corpus"]),
                             "--chains", str(workspace["chains"])]
    before = blas[0]()
    blas[1](2)
    try:
        assert main(command) == 0
        assert seen == [1]
        assert blas[0]() == 2
    finally:
        blas[1](before)


class TestGradcheck:
    def test_small_check_passes(self, capsys):
        assert main(["gradcheck", "--d", "8", "--heads", "2", "--layers", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["max_relative_error"] < 1e-4
        assert payload["parameters_checked"] > 1000

    @pytest.mark.parametrize("heads", ["0", "-2"])
    def test_nonpositive_heads_exit_two(self, capsys, heads):
        assert main(["gradcheck", "--d", "8", "--heads", heads, "--layers", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "must be positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("eps", ["0", "-1e-5", "inf"])
    def test_eps_not_positive_and_finite_exits_two(self, capsys, eps):
        assert main(["gradcheck", "--d", "8", "--heads", "2", "--layers", "1",
                     f"--eps={eps}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "eps must be positive" in captured.err
        assert captured.out == ""

    def test_unreachable_tolerance_exits_two(self, capsys):
        assert main(["gradcheck", "--d", "8", "--heads", "2", "--layers", "1",
                     "--tolerance", "1e-30"]) == 2
        assert json.loads(capsys.readouterr().out)["ok"] is False


class TestEnvConfig:
    """Defaults from the config file; explicit flags stay stronger."""

    def test_config_supplies_defaults(self, workspace, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cases-per-charge": 2, "seed": 5}),
                          encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        out = tmp_path / "c.jsonl"
        assert main(["synth-corpus", "--chains", str(workspace["chains"]),
                     "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cases"] == 2
        assert summary["seed"] == 5

    def test_explicit_flag_beats_config(self, workspace, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}), encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        out = tmp_path / "c.jsonl"
        assert main(["synth-corpus", "--chains", str(workspace["chains"]),
                     "--seed", "1", "--cases-per-charge", "2",
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 1

    def test_foreign_keys_are_ignored(self, workspace, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 9, "unrelated-key": True}),
                          encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        out = tmp_path / "c.jsonl"
        assert main(["synth-corpus", "--chains", str(workspace["chains"]),
                     "--cases-per-charge", "2", "--out", str(out)]) == 0

    def test_negative_seed_from_config_is_usage_error(self, workspace, tmp_path,
                                                      monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -5}), encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        out = tmp_path / "c.jsonl"
        assert main(["synth-corpus", "--chains", str(workspace["chains"]),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_unreadable_config_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "missing.json"))
        assert main(["synth-corpus", "--out", str(tmp_path / "c.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_config_json_is_usage_error(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text("{broken", encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        assert main(["synth-corpus", "--out", str(tmp_path / "c.jsonl")]) == 1

    def test_deeply_nested_config_is_usage_error(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        assert main(["validate-chains", "--out", str(tmp_path / "report.json")]) == 1
        assert "is not valid JSON: nested too deeply" in capsys.readouterr().err

    def test_help_ignores_a_bad_config(self, tmp_path, monkeypatch, capsys):
        """--help exits 0 whatever the config file holds; a real command with
        the same config is still a usage error."""
        monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "missing.json"))
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0
        assert main(["generate", "-h"]) == 0
        capsys.readouterr()
        assert main(["synth-corpus", "--out", str(tmp_path / "c.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_object_config_is_usage_error(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]", encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        assert main(["synth-corpus", "--out", str(tmp_path / "c.jsonl")]) == 1

    @pytest.mark.parametrize("command, doc, wrong", [
        (["synth-corpus"], {"seed": None}, "must be a string or a number, got null"),
        (["gradcheck"], {"d": 8.0}, "has invalid int value '8.0'"),
        (["gradcheck"], {"eps": True}, "must be a string or a number, got true"),
        (["synth-corpus"], {"cases-per-charge": [2]}, "must be a string or a number"),
        (["train", "--corpus", "c", "--checkpoint", "m"], {"no-chains": 1},
         "must be true or false, got 1"),
        (["generate", "--corpus", "c", "--checkpoint", "m"], {"mode": "beam"},
         "must be one of greedy, top-k, got 'beam'"),
    ])
    def test_value_of_the_wrong_type_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                    command, doc, wrong):
        """argparse converts only string defaults, so a config value of
        another JSON type used to reach the command unconverted: a null seed
        or a float layer width ended in a TypeError traceback."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        out = tmp_path / "c.jsonl"
        assert main(command + ["--out", str(out)] * (command[0] == "synth-corpus")) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and repr(next(iter(doc))) in err and wrong in err
        assert not out.exists()

    def test_text_and_numbers_convert_as_on_the_command_line(self, workspace, tmp_path,
                                                             monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "5", "cases_per_charge": 2}), encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(config))
        assert main(["synth-corpus", "--chains", str(workspace["chains"]),
                     "--out", str(tmp_path / "c.jsonl")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["seed"], summary["cases"]) == (5, 2)


class TestNonUtf8Inputs:
    """A text input that is not UTF-8 ends in the exit code its malformed
    content gets, with a one-line message, never a traceback."""

    @pytest.mark.parametrize("kind, code", [
        ("chain-file", 2), ("corpus", 2), ("opinions", 1), ("config", 1),
        ("provision", 2), ("response", 2),
    ])
    def test_exit_code_without_traceback(self, workspace, tmp_path, monkeypatch, capsys,
                                         kind, code):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"case_id": "caf\xe9"}\n')
        out = str(tmp_path / "out.json")
        argv = {
            "chain-file": ["validate-chains", "--chains", str(bad), "--out", out],
            "corpus": ["screen", "--corpus", str(bad), "--chains", str(workspace["chains"]),
                       "--out", out],
            "opinions": ["evaluate", "--corpus", str(workspace["corpus"]),
                         "--opinions", str(bad), "--out", out],
            "config": ["validate-chains", "--out", out],
            "provision": ["extract-prompt", "--charge", "x", "--provision-file", str(bad),
                          "--out", out],
            "response": ["parse-chains", "--charge", "x", "--response-file", str(bad),
                         "--out", out],
        }[kind]
        if kind == "config":
            monkeypatch.setenv(CONFIG_ENV, str(bad))
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error: " if code == 1 else "error: ")
        assert "not UTF-8 text" in err and "Traceback" not in err


class TestBooleanIsNotAnInteger:
    """A JSON boolean where an integer is required exits 2 with one line
    naming where it is."""

    @pytest.mark.parametrize("key", ["min_months", "max_months"])
    def test_chain_file_month_bound(self, workspace, tmp_path, capsys, key):
        doc = json.loads((workspace["chains"] / "dangerous_driving.json").read_text(
            encoding="utf-8"))
        doc["chains"][0]["conclusion"][key] = True
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate-chains", "--chains", str(bad),
                     "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"key '{key}' must be int (field 'chains[0].conclusion.{key}')" in err

    def test_corpus_sentencing_span(self, workspace, tmp_path, capsys):
        lines = workspace["corpus"].read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["sentencing_span"] = [False, 5]
        bad = tmp_path / "bool.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(row)]) + "\n", encoding="utf-8")
        assert main(["screen", "--corpus", str(bad), "--chains", str(workspace["chains"]),
                     "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "sentencing_span must be [start, end] (line 2, field 'sentencing_span')" in err


class TestByteReproducibility:
    """Identical invocations produce identical bytes, files included."""

    def test_synth_corpus(self, workspace, capsys):
        outs = []
        stdouts = []
        for name in ("a.jsonl", "b.jsonl"):
            path = workspace["root"] / name
            assert main(["synth-corpus", "--chains", str(workspace["chains"]),
                         "--seed", "7", "--cases-per-charge", "3",
                         "--out", str(path)]) == 0
            captured = json.loads(capsys.readouterr().out)
            captured.pop("out")
            stdouts.append(captured)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert stdouts[0] == stdouts[1]

    def test_validate_chains_stdout(self, workspace, capsys):
        assert main(["validate-chains", "--chains", str(workspace["chains"])]) == 0
        first = capsys.readouterr().out
        assert main(["validate-chains", "--chains", str(workspace["chains"])]) == 0
        assert capsys.readouterr().out == first

    def test_train_checkpoint_and_log(self, workspace, capsys):
        blobs = []
        for name in ("r1", "r2"):
            ckpt = workspace["root"] / f"{name}.ckpt"
            log = workspace["root"] / f"{name}.csv"
            assert main(_train_args(workspace, ckpt) + ["--log", str(log)]) == 0
            capsys.readouterr()
            blobs.append((ckpt.read_bytes(), log.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_generate_and_reports(self, workspace, tmp_path, capsys):
        opinion_bytes = []
        for name in ("o1.jsonl", "o2.jsonl"):
            path = tmp_path / name
            assert main(["generate", "--checkpoint", str(workspace["checkpoint"]),
                         "--corpus", str(workspace["corpus"]),
                         "--chains", str(workspace["chains"]),
                         "--max-len", "20", "--out", str(path)]) == 0
            capsys.readouterr()
            opinion_bytes.append(path.read_bytes())
        assert opinion_bytes[0] == opinion_bytes[1]

        report_out = []
        for _ in range(2):
            assert main(["evaluate", "--corpus", str(workspace["corpus"]),
                         "--opinions", str(tmp_path / "o1.jsonl")]) == 0
            report_out.append(capsys.readouterr().out)
        assert report_out[0] == report_out[1]

        screen_out = []
        for _ in range(2):
            assert main(["screen", "--corpus", str(workspace["corpus"]),
                         "--chains", str(workspace["chains"])]) == 0
            screen_out.append(capsys.readouterr().out)
        assert screen_out[0] == screen_out[1]

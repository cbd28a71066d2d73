"""Command-line interface.

Subcommands cover the full workflow: building extraction prompts, parsing
structured responses into chain files, validating chain libraries,
synthesizing corpora, training, generation, evaluation, screening, and a
finite-difference gradient check.

Exit codes: 0 success, 1 usage error, 2 validation or contract failure,
3 I/O failure.  All output is deterministic for fixed inputs; a JSON config
file named by the ``CHAIN_REASONER_CONFIG`` environment variable supplies
defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .chains import (
    build_extraction_prompt,
    charge_chains,
    load_chain_library,
    parse_extraction_response,
    serialize_chain_set,
    validate_chain_set,
)
from .client import CompletionClient
from .corpus import CaseRecord, load_jsonl, save_jsonl, split, synthesize_corpus
from .checkpoint import load_checkpoint
from .errors import (ContractError, ExtractionError, LexchainError, UsageError, ValidationError,
                     parse_json, read_text)
from .metrics import evaluate_outputs, screen_corpus
from .model import decode_cases
from .training import LOG_HEADER, TrainConfig, gradcheck_full_pipeline, one_blas_thread, train

CONFIG_ENV = "CHAIN_REASONER_CONFIG"


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


def default_chains_dir() -> Path:
    return Path(str(resources.files("lexchain") / "data" / "chains"))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_opinions(path: str, records: list[CaseRecord]) -> dict[str, str]:
    """case_id -> opinion from a JSONL opinions file that covers every record."""
    opinions: dict[str, str] = {}
    first_line: dict[str, int] = {}
    text = read_text(path, lambda reason: UsageError(f"{path} is {reason}"))
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        row = parse_json(line, lambda reason, _: UsageError(
            f"{path}:{lineno}: not valid JSON: {reason}"))
        if not isinstance(row, dict) or "case_id" not in row or "opinion" not in row:
            raise UsageError(f"{path}:{lineno}: each line needs case_id and opinion")
        case_id = str(row["case_id"])
        if case_id in first_line:
            raise UsageError(f"{path}:{lineno}: duplicate case_id {case_id!r} "
                             f"(first at line {first_line[case_id]})")
        first_line[case_id] = lineno
        opinions[case_id] = str(row["opinion"])
    if not opinions:
        raise UsageError(f"{path}: no opinions found")
    missing = [r.case_id for r in records if r.case_id not in opinions]
    if missing:
        raise UsageError(f"opinions file lacks case ids: {missing[:5]}")
    return opinions


def _trained_with_chains(extra: dict) -> bool:
    """False only when the checkpoint records a chain-free training run."""
    train_config = extra.get("train_config")
    return not (isinstance(train_config, dict) and train_config.get("use_chains") is False)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_extract_prompt(args) -> int:
    provision = read_text(args.provision_file,
                          lambda reason: ValidationError(f"provision file is {reason}"))
    prompt = build_extraction_prompt(provision, args.charge)
    if args.llm_endpoint:
        client = CompletionClient(args.llm_endpoint, timeout=args.timeout)
        response = client.complete(prompt)
        chain_set, diagnostics = parse_extraction_response(response, args.charge)
        for note in diagnostics:
            print(f"note: {note}", file=sys.stderr)
        _emit(serialize_chain_set(chain_set), args.out)
    else:
        _emit(prompt if prompt.endswith("\n") else prompt + "\n", args.out)
    return 0


def cmd_parse_chains(args) -> int:
    response = read_text(args.response_file,
                         lambda reason: ExtractionError(f"response file is {reason}"))
    chain_set, diagnostics = parse_extraction_response(response, args.charge)
    for note in diagnostics:
        print(f"note: {note}", file=sys.stderr)
    _emit(serialize_chain_set(chain_set), args.out)
    return 0


def cmd_validate_chains(args) -> int:
    library = load_chain_library(args.chains)
    reports = [validate_chain_set(library[charge]) for charge in sorted(library)]
    payload = {
        "chains_dir": str(args.chains),
        "reports": [r.to_dict() for r in reports],
        "ok": all(r.ok for r in reports),
    }
    _emit(_dump(payload), args.out)
    return 0 if payload["ok"] else 2


def cmd_synth_corpus(args) -> int:
    library = load_chain_library(args.chains)
    records = synthesize_corpus(args.seed, library,
                                cases_per_charge=args.cases_per_charge,
                                distractor_max=args.distractors)
    save_jsonl(records, args.out)
    summary = {
        "cases": len(records),
        "charges": sorted({r.charge for r in records}),
        "out": args.out,
        "seed": args.seed,
    }
    sys.stdout.write(_dump(summary))
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        lr=args.lr, alpha=args.alpha, beta=args.beta, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed, dropout=args.dropout,
        use_chains=not args.no_chains, heads=args.heads, dec_heads=args.dec_heads,
        d=args.d, layers=args.layers, context=args.context,
        max_gen_len=args.max_len, eval_every=args.eval_every,
    )


def cmd_train(args) -> int:
    records = load_jsonl(args.corpus)
    parts = split(records, args.split_ratio, args.seed)
    library = load_chain_library(args.chains)
    cfg = _train_config(args)
    result = train(parts, library, cfg,
                   checkpoint_path=args.checkpoint, log_path=args.log)
    last = result.log_rows[-1]
    payload = {
        "config": cfg.to_dict(),
        "train_cases": len(parts.train),
        "test_cases": len(parts.test),
        "final": {k: last[k] for k in LOG_HEADER},
        "checkpoint": args.checkpoint,
        "log": args.log,
    }
    sys.stdout.write(_dump(payload))
    return 0


@one_blas_thread()
def cmd_generate(args) -> int:
    model, extra = load_checkpoint(args.checkpoint)
    records = load_jsonl(args.corpus)
    if not records:
        raise ContractError(f"corpus {args.corpus} holds no cases to decode")
    charges = sorted({r.charge for r in records})
    use_chains = not args.no_chains and _trained_with_chains(extra)
    library = load_chain_library(args.chains) if use_chains else {}
    chain_map = charge_chains(library, charges, use_chains)
    outputs = decode_cases(model, records, chain_map, max_len=args.max_len, mode=args.mode,
                           seed=args.seed)
    lines = [json.dumps({"case_id": rec.case_id, "opinion": output.text},
                        sort_keys=True, ensure_ascii=False)
             for rec, output in zip(records, outputs)]
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        summary = {
            "cases": len(records),
            "checkpoint": args.checkpoint,
            "mode": args.mode,
            "out": args.out,
            "use_chains": use_chains,
        }
        sys.stdout.write(_dump(summary))
    return 0


def cmd_evaluate(args) -> int:
    records = load_jsonl(args.corpus)
    opinions = _read_opinions(args.opinions, records)
    report = evaluate_outputs(records, opinions)
    report["config"] = {"corpus": args.corpus, "opinions": args.opinions}
    _emit(_dump(report), args.out)
    return 0


def cmd_screen(args) -> int:
    records = load_jsonl(args.corpus)
    if args.opinions:
        opinions = _read_opinions(args.opinions, records)
    else:
        opinions = {r.case_id: r.opinion for r in records}
    library = load_chain_library(args.chains)
    report = screen_corpus(records, opinions, library)
    report["config"] = {
        "chains": str(args.chains),
        "corpus": args.corpus,
        "opinions": args.opinions,
    }
    _emit(_dump(report), args.out)
    return 0


@one_blas_thread()
def cmd_gradcheck(args) -> int:
    err, scalars = gradcheck_full_pipeline(seed=args.seed, d=args.d, heads=args.heads,
                                           layers=args.layers, eps=args.eps)
    payload = {
        "max_relative_error": err,
        "parameters_checked": scalars,
        "tolerance": args.tolerance,
        "ok": bool(err < args.tolerance),
    }
    sys.stdout.write(_dump(payload))
    return 0 if payload["ok"] else 2


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="lexchain",
                     description="Chain-conditioned sentencing opinion toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parser.subcommands = {}

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        parser.subcommands[name] = p
        return p

    p = add("extract-prompt", cmd_extract_prompt,
            "Build the chain-extraction prompt for a provision; optionally run it "
            "against a completion endpoint and emit the parsed chain file")
    p.add_argument("--charge", required=True)
    p.add_argument("--provision-file", required=True)
    p.add_argument("--llm-endpoint", default=None,
                   help="completion endpoint URL; when set, the parsed chain file is emitted")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--out", default=None)

    p = add("parse-chains", cmd_parse_chains,
            "Parse a structured extraction response into a chain file")
    p.add_argument("--charge", required=True)
    p.add_argument("--response-file", required=True)
    p.add_argument("--out", default=None)

    p = add("validate-chains", cmd_validate_chains,
            "Check every chain file against the machine-checkable constraints")
    p.add_argument("--chains", default=str(default_chains_dir()))
    p.add_argument("--out", default=None)

    p = add("synth-corpus", cmd_synth_corpus,
            "Write a deterministic synthetic case corpus as JSONL")
    p.add_argument("--chains", default=str(default_chains_dir()))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases-per-charge", type=int, default=20)
    p.add_argument("--distractors", type=int, default=2)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, "Train the chain-conditioned opinion model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--chains", default=str(default_chains_dir()))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None, help="CSV training log path")
    p.add_argument("--no-chains", action="store_true",
                   help="ablation: decode from the fact alone")
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--dec-heads", type=int, default=4)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--context", type=int, default=256)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--max-len", type=int, default=96)
    p.add_argument("--eval-every", type=int, default=1,
                   help="decode the held-out split every N epochs (always on the last)")

    p = add("generate", cmd_generate, "Decode opinions for a corpus from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--chains", default=str(default_chains_dir()))
    p.add_argument("--no-chains", action="store_true",
                   help="decode from the fact alone (always so for a checkpoint "
                        "trained without chains)")
    p.add_argument("--mode", choices=("greedy", "top-k"), default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=96)
    p.add_argument("--out", default=None)

    p = add("evaluate", cmd_evaluate,
            "Score generated opinions against gold cases (months error, overlap)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--opinions", required=True)
    p.add_argument("--out", default=None)

    p = add("screen", cmd_screen,
            "Rule-based screening of opinions against the chain library")
    p.add_argument("--corpus", required=True)
    p.add_argument("--opinions", default=None,
                   help="JSONL of case_id/opinion; defaults to the corpus gold opinions")
    p.add_argument("--chains", default=str(default_chains_dir()))
    p.add_argument("--out", default=None)

    p = add("gradcheck", cmd_gradcheck,
            "Finite-difference check of the end-to-end training gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)

    return parser


def _apply_env_config(parser: _Parser, argv: list[str]) -> None:
    """Seed subparser defaults from the JSON file named by CHAIN_REASONER_CONFIG.

    Only keys matching the invoked subcommand's options are applied, and
    explicit flags always win because these are defaults, not overrides.
    Each value is converted as the option's command-line text would be (see
    :func:`_config_value`).
    """
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return
    try:
        raw = read_text(path, lambda reason: UsageError(f"{CONFIG_ENV} file {path!r} is {reason}"))
    except OSError as exc:
        raise UsageError(f"cannot read {CONFIG_ENV} file {path!r}: {exc}") from exc
    doc = parse_json(raw, lambda reason, _: UsageError(
        f"{CONFIG_ENV} file {path!r} is not valid JSON: {reason}"))
    if not isinstance(doc, dict):
        raise UsageError(f"{CONFIG_ENV} file {path!r} must hold a JSON object")
    command = next((a for a in argv if not a.startswith("-")), None)
    subparser = parser.subcommands.get(command)
    if subparser is None:
        return
    options = {a.dest: a for a in subparser._actions if not isinstance(a, argparse._HelpAction)}
    defaults = {}
    for key, value in doc.items():
        action = options.get(key.replace("-", "_"))
        if action is not None:
            defaults[action.dest] = _config_value(action, value, f"{CONFIG_ENV} file {path!r}: "
                                                                 f"{key!r}")
    subparser.set_defaults(**defaults)


def _config_value(action: argparse.Action, value, where: str):
    """A config file's value for one option.  A flag takes true or false;
    any other option takes a string or a number, converted from its text by
    the option's type and checked against its choices, as argparse treats
    the command line.  Anything else raises UsageError naming ``where``."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise UsageError(f"{where} must be true or false, got {json.dumps(value)}")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"{where} must be a string or a number, got {json.dumps(value)}")
    text = str(value)
    try:
        converted = action.type(text) if action.type is not None else text
    except (TypeError, ValueError):
        raise UsageError(f"{where} has invalid {action.type.__name__} value {text!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise UsageError(f"{where} must be one of {', '.join(map(str, action.choices))}, "
                         f"got {text!r}")
    return converted


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if not {"-h", "--help"} & set(argv):  # help never reads the config file
            _apply_env_config(parser, argv)
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        if getattr(args, "seed", 0) < 0:  # also covers a seed from CONFIG_ENV
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LexchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the synthetic label-proportion sweep and print a summary table.

Writes the full result JSON via the CLI, then pivots the per-cell metrics
into one row per (mixture, document length) with both losses side by side.
The defaults reproduce the desk-scale benchmark; pass --quick for a small
smoke-test sweep.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sparsemax.cli import main as cli_main


def build_config(args) -> dict:
    if args.quick:
        return {
            "n_labels": 4,
            "n_train": 60,
            "n_test": 60,
            "doc_lengths": [100, 400],
            "mixtures": ["uniform"],
            "losses": ["logistic", "sparsemax"],
            "folds": 3,
            "lambdas": [1e-4, 1e-2],
            "max_epochs": 60,
        }
    return {
        "n_labels": 10,
        "n_train": 300,
        "n_test": 300,
        "doc_lengths": [200, 800, 1400, 2000],
        "mixtures": ["uniform", "random_dirichlet"],
        "losses": ["logistic", "sparsemax"],
    }


def print_table(payload: dict) -> None:
    cells = payload["per_cell_results"]
    by_key = {(c["mixture"], c["doc_length"], c["loss"]): c for c in cells}
    mixtures = payload["config_echo"]["mixtures"]
    lengths = payload["config_echo"]["doc_lengths"]
    print(f"{'mixture':<18} {'length':>6} {'logistic JS':>12} {'sparsemax JS':>13} "
          f"{'logistic MSE':>13} {'sparsemax MSE':>14}")
    for mixture in mixtures:
        for length in lengths:
            log_cell = by_key[(mixture, length, "logistic")]
            sp_cell = by_key[(mixture, length, "sparsemax")]
            print(
                f"{mixture:<18} {length:>6} {log_cell['js_divergence']:>12.4f} "
                f"{sp_cell['js_divergence']:>13.4f} {log_cell['mse']:>13.4f} "
                f"{sp_cell['mse']:>14.4f}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="result JSON path (default: temp file)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="small fast sweep")
    args = parser.parse_args(argv)

    if args.out is None:
        out_path = Path(tempfile.mkdtemp(prefix="labelprop_")) / "result.json"
    else:
        out_path = Path(args.out)

    config = {**build_config(args), "seed": args.seed}
    config_path = out_path.with_suffix(".config.json")
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    code = cli_main(["labelprop", "--config", str(config_path), "--out", str(out_path)])
    if code != 0:
        return code
    payload = json.loads(out_path.read_text())
    print_table(payload)
    print(f"\nfull results: {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rewrite bench/records.json, the per-seed outputs the benchmark checks.

    python3 bench/make_records.py

Records the first 4 train-step losses, the first 8 greedy captions and
the ckpt-metrics report for seeds 0-31 of the default config. Rerun it
only for a change that is meant to alter these outputs, and say so in
that change.
"""

import json
import sys

import run  # pins BLAS threads before numpy is imported

SEEDS = range(32)
TRAIN_STEPS = 4
CAPTIONS = 8


def main():
    run.import_ccx()
    import workloads as W
    from ccx import config

    cfg = W.default_config()
    out = {"setup": {"fingerprint": config.fingerprint(cfg), "n_pairs": W.N_PAIRS},
           "train-step": {}, "caption-greedy": {}, "ckpt-metrics": {}}
    with run.scratch_dir("records-") as work:
        for seed in SEEDS:
            for name, n in (("train-step", TRAIN_STEPS), ("caption-greedy", CAPTIONS),
                            ("ckpt-metrics", 1)):
                w = W.WORKLOADS[name](cfg, seed, work)
                w.expected = None  # record what the program does now
                values = [w.op(i).value for i in range(n)]
                out[name][str(seed)] = values if name != "ckpt-metrics" else values[0]
            print(f"seed {seed} recorded", flush=True)
    W.RECORDS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record reference.json: per-seed precisions and traced call-count anchors.

    python3 perfbench/record_reference.py --seeds 40

Run from the repository root at the commit whose outputs are the
reference. Each workload runs once per seed with only the chance-floor
precision check, then once traced (seed 0) to take the call counts that
later traced runs are compared with.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

ANCHORS = ("spectral.eigendecompose_calls", "evaluation.rank_calls",
           "baselines.max_eigenvalue_calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=40, help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args(argv)

    empty = {"precision": {}, "anchors": {}}
    reference = {"source_sha256": run.source_digest(), "precision": {}, "anchors": {}}
    work = run.BENCH_DIR / "work" / "record"
    for workload in run.WORKLOADS:
        reference["precision"][workload] = {}
        for seed in range(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            session = run.Session(workload, seed, work, empty)
            session.invoke("ref")
            if session.failures:
                print(f"{workload} seed {seed}: {session.failures}", file=sys.stderr)
                return 1
            reference["precision"][workload][str(seed)] = session.precisions
            print(f"{workload} seed {seed}: precision_mean {session.precision_mean:.6g}",
                  flush=True)
        shutil.rmtree(work)
        work.mkdir(parents=True)
        session = run.Session(workload, 0, work, empty)
        metrics, _ = run.measure_layers(session)
        if session.failures:
            print(f"{workload} traced: {session.failures}", file=sys.stderr)
            return 1
        reference["anchors"][workload] = {name: metrics[name] for name in ANCHORS}
        print(f"{workload} anchors: {reference['anchors'][workload]}", flush=True)
    shutil.rmtree(work)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

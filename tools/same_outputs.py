"""Check that the CLI's outputs are byte-identical to those of another commit.

    python3 tools/same_outputs.py REF

REF is any commit git can resolve. It is exported with ``git archive`` into
a temporary directory, which is removed at exit, so comparing against
``HEAD`` also catches an output that depends on the checkout's path or
changes between reruns. The seed-0 and seed-1 inputs of every benchmark
workload are generated with ``perfbench/gen.py``. On each input, and at 1
and at 2 BLAS threads, both REF and this working tree (each run with
``PYTHONPATH=<tree>/src``) run the workload's CLI arguments from
``perfbench/run.py``'s ``WORKLOADS``. On the ``sweep-grid`` input they also
run ``spectrum``, ``diagnose``, a matrix-averaged three-method
``predict``, a one-realization SPM and PBSPM ``predict``, ``predict
--method Katz --katz-damping 0.01``, whose inverse is written over its
linear system as ``predict-large``'s is, the same with
``--katz-max-path-length 4``, which sums Katz's series instead,
``predict --method SRW`` at 1 and at 5 walk steps, and ``predict --method
FastPBSPM --m 41 --alpha 5``, whose 410·10·41 stacked floats would
outnumber the candidates, so its mean scores are a running sum. The same
stream is also written seven more ways, and ``predict --method
SPM,PBSPM,CN`` runs on each: with a weight field (``1.5``) on every other
line, so the parse of mixed 3- and 4-field lines is compared too; with
every label prefixed by ``ü``; with every stamp written ``{t}.0``; with
every label written ``node-{u:011d}``, 16 bytes; after a KONECT-style
header of two ``%`` lines (``konect-header``); with every stamp written
``+{t}`` (``signed-stamps``); and with every stamp written ``10**9 - t``
(``descending-stamps``), so the file runs backwards in time and
``simplify``'s time sort does real work. numpy's text reader reads the
last three, as it reads the workloads' inputs; the line grammar reads the
other four. Every output file, stdout, stderr and exit code is compared.
Each difference is printed, and the exit code is 1 if there is any. A
differing ``predictions_*.txt`` is also described: whether both trees list
the same pairs in the same order, and if so the largest score move
relative to the largest score, so a change that moves scores only in the
last ULPs shows as one.

Run it alone. Its child processes ask for every CPU, so anything run beside
it slows down badly: on 2 vCPUs the tier-1 suite took 494.9 s beside it,
against 20-29 s alone.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEEDS = (0, 1)
BLAS_THREADS = (1, 2)
# Commands beyond the workloads', on the sweep-grid input.
EXTRA = {
    "spectrum": ("spectrum",),
    "diagnose": ("diagnose", "--method", "PBSPM", "--alpha", "5"),
    "predict-matrix": ("predict", "--method", "SPM,PBSPM,FastPBSPM", "--m", "7",
                       "--alpha", "3", "--score-averaging", "matrix"),
    "predict-one-realization": ("predict", "--method", "SPM,PBSPM", "--realizations", "1"),
    "predict-katz": ("predict", "--method", "Katz", "--katz-damping", "0.01"),
    "predict-katz-series": ("predict", "--method", "Katz", "--katz-damping", "0.01",
                            "--katz-max-path-length", "4"),
    "predict-srw-1": ("predict", "--method", "SRW", "--srw-steps", "1"),
    "predict-srw-5": ("predict", "--method", "SRW", "--srw-steps", "5"),
    "predict-fast-summed": ("predict", "--method", "FastPBSPM", "--m", "41", "--alpha", "5"),
}
# The sweep-grid stream written other ways, by each variant's line of event i.
VARIANTS = {
    "weighted": lambda i, u, v, t: f"{u}\t{v}\t1.5\t{t}\n" if i % 2 else f"{u}\t{v}\t{t}\n",
    "non-ascii": lambda i, u, v, t: f"ü{u}\tü{v}\t{t}\n",
    "float-stamps": lambda i, u, v, t: f"{u}\t{v}\t{t}.0\n",
    "long-labels": lambda i, u, v, t: f"node-{u:011d}\tnode-{v:011d}\t{t}\n",
    "konect-header": lambda i, u, v, t: ("% sym unweighted\n% 17000 410 410\n" if i == 0 else "")
    + f"{u}\t{v}\t{t}\n",
    "signed-stamps": lambda i, u, v, t: f"{u}\t{v}\t+{t}\n",
    "descending-stamps": lambda i, u, v, t: f"{u}\t{v}\t{10**9 - t}\n",
}
VARIANT_ARGS = ("predict", "--method", "SPM,PBSPM,CN")


def commands(inputs: Path, seed: int) -> dict[str, tuple[str, ...]]:
    """Each command's name and its CLI arguments, input included, for one seed."""
    runs = {
        name: (*workload.cli_args, "--input", str(inputs / f"{name}-{seed}.tsv"))
        for name, workload in WORKLOADS.items()
    }
    sweep_input = ("--input", str(inputs / f"sweep-grid-{seed}.tsv"))
    runs.update((name, (*args, *sweep_input)) for name, args in EXTRA.items())
    runs.update(
        (f"predict-{variant}",
         (*VARIANT_ARGS, "--input", str(inputs / f"sweep-grid-{variant}-{seed}.tsv")))
        for variant in VARIANTS
    )
    return runs


def outcome(tree: Path, args: tuple[str, ...], threads: int, work: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and every output file of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    out = work / "out"  # the same path for both trees, since outputs may name it
    proc = subprocess.run([sys.executable, "-m", "pbspm.cli", *args, "--out-dir", str(out)],
                          env=env, cwd=work, capture_output=True)
    result = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
              "stderr": proc.stderr}
    if out.exists():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            result[str(path.relative_to(out))] = path.read_bytes()
        shutil.rmtree(out)
    return result


def describe_predictions(want: bytes, got: bytes) -> str:
    """How two ``u<TAB>v<TAB>score`` prediction lists differ."""
    old, new = ([line.rsplit("\t", 1) for line in text.decode("utf-8").splitlines()]
                for text in (want, got))
    if [pair for pair, _ in old] != [pair for pair, _ in new]:
        return "different pairs or order"
    move = max(abs(float(b) - float(a)) for (_, a), (_, b) in zip(old, new))
    top = max(abs(float(a)) for _, a in old)
    return (f"same pairs in the same order, scores moved by {move / top if top else move:.2g}"
            " of the largest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", metavar="REF", help="the commit to compare against")
    ref = parser.parse_args(argv).ref
    temp = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    ref_tree = temp / "ref"
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                                 capture_output=True)
        if archive.returncode != 0:
            print(f"cannot export {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        ref_tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive.stdout, check=True)
        inputs, work = temp / "inputs", temp / "work"
        inputs.mkdir()
        work.mkdir()
        for name in WORKLOADS:
            for seed in SEEDS:
                gen.write_stream(inputs / f"{name}-{seed}.tsv",
                                 gen.contacts(gen.SPECS[name], seed))
        for seed in SEEDS:
            rows = gen.contacts(gen.SPECS["sweep-grid"], seed).tolist()
            for variant, line in VARIANTS.items():
                text = "".join(line(i, u, v, t) for i, (u, v, t) in enumerate(rows))
                (inputs / f"sweep-grid-{variant}-{seed}.tsv").write_text(text, encoding="utf-8")
        differences = compared = 0
        for seed in SEEDS:
            for threads in BLAS_THREADS:
                for name, args in commands(inputs, seed).items():
                    want = outcome(ref_tree, args, threads, work)
                    got = outcome(ROOT, args, threads, work)
                    compared += len(want.keys() | got.keys())
                    for key in sorted(want.keys() | got.keys()):
                        if want.get(key) != got.get(key):
                            differences += 1
                            side = ("only at REF" if key not in got else
                                    "only here" if key not in want else "differs")
                            if side == "differs" and Path(key).name.startswith("predictions_"):
                                side += ": " + describe_predictions(want[key], got[key])
                            print(f"seed {seed}, {threads} BLAS threads, {name}: {key} {side}")
        print(f"{compared} outputs compared with {ref}, {differences} different")
        return 1 if differences else 0
    finally:
        shutil.rmtree(temp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

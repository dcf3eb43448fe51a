"""Write ``reference.json``: the per-check residuals of every workload
member for seeds 0-9, from the code in ``src/``.

    python3 perfbench/make_reference.py

Each report must pass the benchmark's gate (check names, statuses,
degree) before its residuals are stored.  The benchmark prints how far
a later version's residuals moved from these, as a share of each
check's tolerance.
"""

import json
import sys
import tempfile

import run
import workloads
from child import run_pass

SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from dcmodel import cli

    reference = {}
    (run.BENCH_DIR / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR / "_work") as work:
        for name in sorted(workloads.WORKLOADS):
            reference[name] = {}
            for seed in SEEDS:
                members = workloads.generate(name, seed)
                pairs = []
                for k, m in enumerate(members):
                    pairs.append((f"{work}/{k}.json", f"{work}/{k}.report.json"))
                    workloads.write_tuple_file(pairs[-1][0], m)
                _, calls = run_pass(cli, pairs)
                gate = run.Gate(members, None)
                gate.add_child({"calls": calls})
                if not gate.correct:
                    print(f"error: {name} seed {seed}: {gate.problems}", file=sys.stderr)
                    return 1
                reference[name][str(seed)] = [
                    [c["residual"] for c in json.loads(call["report"])["checks"]]
                    for call in calls
                ]
                print(f"{name} seed {seed}: ok", flush=True)
    with open(run.REFERENCE, "w") as f:
        f.write(dumps(reference))
    return 0


def dumps(reference: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name, seeds in sorted(reference.items()):
        rows = ",\n".join(f"  {json.dumps(s)}: {json.dumps(v)}" for s, v in seeds.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())

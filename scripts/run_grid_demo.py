"""Run the full/sr/ours comparison grid on a synthetic loan dataset.

Generates a biased dataset (a fraction of approvals in one group flipped to
denials), runs every grid config through all three trainings, and writes the
per-config CSV, boxplot five-number summaries, and a JSON summary with the
best configs. Defaults reproduce the 4-config direction check from the
acceptance suite in seconds; --full-scale switches to the 240-config grid,
about a minute on 2 workers of a 2-core machine.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from fairtrim.data import load_dataset
from fairtrim.experiment import GridSpec, emit_reports, run_grid
from fairtrim.influence import SolverConfig
from fairtrim.synthetic import loans_schema, write_loans


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=1000)
    ap.add_argument("--data-seed", type=int, default=0)
    ap.add_argument("--flip-rate", type=float, default=0.45,
                    help="fraction of one group's approvals flipped to denials")
    ap.add_argument("--out-dir", default="grid_out")
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--full-scale", action="store_true",
                    help="240 configs instead of 4")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "loans.csv"
    write_loans(csv_path, out / "loans.schema.json",
                n=args.rows, seed=args.data_seed, flip_rate=args.flip_rate)
    d = load_dataset(csv_path, loans_schema())

    # settings both grids share; only the axes differ
    shared = dict(
        epochs=400, learning_rate=0.3, pool_multiplier=5,
        chunk_percent=10.0, max_chunks=20,
        solver=SolverConfig(cg_max_iter=100),
        freeze_pool=True, workers=args.workers,
    )
    if args.full_scale:
        spec = GridSpec.full_scale(**shared)
    else:
        spec = GridSpec(
            hidden1_choices=(16,), hidden2_choices=(8,), batch_sizes=None,
            permutation_seeds=(0, 3), **shared,
        )

    t0 = time.time()
    result = run_grid(d, spec)
    paths = emit_reports(result, out)
    print(f"{len(result.records)} configs in {time.time() - t0:.0f}s, "
          f"{len(result.unfair_union)} rows flagged unfair overall")
    for r in result.records:
        cells = "  ".join(
            f"{tech}: d={m.discrimination:.3f} a={'--' if m.accuracy is None else f'{m.accuracy:.3f}'}"
            for tech, m in r.metrics.items()
        )
        print(f"  {r.config_id}  {cells}  removed={len(r.removed_row_ids)}")
    print(json.dumps(result.picks(), indent=2))
    print("reports:", ", ".join(paths.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

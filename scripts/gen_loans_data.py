"""Generate a synthetic loan-approval CSV with injected group bias.

Approvals follow a noisy linear score of income, savings, debt, employment,
and housing; a fraction of the approvals in group "beta" are then flipped to
denials. The flipped row ids are printed so experiments can check whether the
influence ranking recovers them. Also writes the schema sidecar the CLI and
loaders expect.
"""

import argparse
import sys
from pathlib import Path

from fairtrim.synthetic import write_loans


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="CSV path to write (schema lands next to it)")
    ap.add_argument("--rows", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--flip-rate", type=float, default=0.35,
                    help="fraction of group beta's approvals flipped to denials")
    ap.add_argument("--list-flipped", action="store_true",
                    help="print the 1-based row ids whose labels were flipped")
    args = ap.parse_args()

    csv_path = Path(args.out)
    schema_path = csv_path.with_suffix(".schema.json")
    flipped = write_loans(csv_path, schema_path, n=args.rows, seed=args.seed,
                          flip_rate=args.flip_rate)
    print(f"wrote {args.rows} rows to {csv_path} (schema: {schema_path}), "
          f"{len(flipped)} labels flipped")
    if args.list_flipped:
        print(" ".join(str(i) for i in flipped))
    return 0


if __name__ == "__main__":
    sys.exit(main())

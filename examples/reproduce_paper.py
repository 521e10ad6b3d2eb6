"""Regenerate every table and figure of the paper in one run.

Prints what ``python -m repro NAME`` prints for every artifact of
:data:`repro.cli.ARTIFACTS`, in its order: Tables I-VII and Figures 2, 8,
9 and 10, next to the paper's values where the paper gives them, and the
energy extension.  Then it draws Figures 8 and 10 as bar charts.  This is
the script whose output EXPERIMENTS.md records.

Run:  python examples/reproduce_paper.py          (~30 s cold, 2 cores)
      python examples/reproduce_paper.py --fast   (skip MPNN in Figure 8)
      python examples/reproduce_paper.py --jobs 8 (parallel Figure 8)

Repeat runs are served from the persistent result cache (~/.cache/repro)
and complete in seconds.
"""

import argparse

from repro import cli
from repro.eval import figure8_chart, figure10, figure10_chart
from repro.eval.speedups import FIGURE8_GROUPS


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true",
        help="skip the MPNN benchmark (the slowest simulation) in Figure 8",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the Figure 8 sweep (results are "
             "bit-identical to the serial run)",
    )
    args = parser.parse_args(argv)
    # Simulate the Figure 8 grid on --jobs workers; `repro figure8` below
    # then reads every cell from the result cache.
    cells = cli.figure8_cells(args.fast, jobs=args.jobs)
    for artifact in cli.ARTIFACTS:
        command = [artifact.name]
        if args.fast and artifact.fast:
            command.append("--fast")
        print(f"$ python -m repro {' '.join(command)}")
        cli.main(command)
        print()
    for config, _ in FIGURE8_GROUPS:
        print(figure8_chart(cells, config))
        print()
    print(figure10_chart(figure10()))


if __name__ == "__main__":
    main()

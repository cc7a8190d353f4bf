"""Regenerate every reproduced figure/table (E1-E18) and print the rows.

This is the one-shot driver behind README.md's Experiments table: it
walks the central experiment registry (:mod:`repro.runner`) — the same
code path the CLI, the benchmarks and the tests use — runs every
registered experiment and prints its table plus summary lines, so the
paper-versus-measured comparison can be refreshed after any model
change.

Run with::

    python examples/reproduce_figures.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.runner import all_specs


def banner(title: str) -> None:
    print()
    print("#" * 78)
    print(f"# {title}")
    print("#" * 78)


def main() -> None:
    for spec in all_specs():
        banner(f"{spec.eid} / {spec.id} — {spec.title}")
        result = spec.execute()
        print(format_table(spec.extract_rows(result)))
        for line in spec.summary_lines(result):
            print(line)


if __name__ == "__main__":
    main()

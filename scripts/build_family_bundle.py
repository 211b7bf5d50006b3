#!/usr/bin/env python3
"""Build a determining-spectrum bundle for the exhaustive family on n
vertices and report separation statistics.

Writes the bundle JSON (the same bundle `natspec ds-build` writes for
that corpus, reusable with `natspec ds-check`) and prints how many
pairs of non-isomorphic members share a merged spectrum."""

import argparse
import time

from natspec.cli import _bundle_to_json, _emit
from natspec.graphs import enumerate_graphs
from natspec.spectra import build_ds_dpoly


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    family = enumerate_graphs(args.n)
    t0 = time.time()
    bundle = build_ds_dpoly(family)
    print(
        "built bundle for %d graphs in %.1fs (%d probes)"
        % (len(family), time.time() - t0, len(bundle.probes))
    )
    data = _bundle_to_json(bundle, family)
    specs = data["member_spectra"]
    collisions = [
        (i, j)
        for i in range(len(family))
        for j in range(i + 1, len(family))
        if specs[i] == specs[j]
    ]
    print("spectrum collisions among non-isomorphic members:", collisions)
    print("full-dimension members:", sum(bundle.full_members))
    print("stats:", data["stats"])
    if args.out:
        _emit(data, args.out)
        print("wrote", args.out)


if __name__ == "__main__":
    main()

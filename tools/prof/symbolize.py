#!/usr/bin/env python3
"""Symbolizes a tools/prof/sigprof.c profile and prints flat and inclusive tables.

usage: python3 tools/prof/symbolize.py PROF_OUT [--top N]

PROF_OUT holds one sample per line (hex PCs, innermost first) and
PROF_OUT.maps the profiled process's /proc/self/maps. Each PC is mapped to
its module and file offset and resolved with one addr2line call per module.
A return address is looked up one byte earlier, inside the call. "self" bills
a sample to its innermost function, "inclusive" to every distinct function on
its stack (once per sample).
"""
import argparse
import collections
import subprocess
import sys


def read_maps(path):
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5]))
    return maps


def locate(maps, pc):
    for lo, hi, off, module in maps:
        if lo <= pc < hi:
            return module, pc - lo + off
    return None, pc


def symbolize(module, offsets):
    """{offset: function name} for one module, from one addr2line call."""
    if not offsets or not module.startswith("/"):
        return {}
    ordered = sorted(offsets)
    out = subprocess.run(["addr2line", "-f", "-C", "-e", module] + [hex(o) for o in ordered],
                         capture_output=True, text=True, check=False).stdout.splitlines()
    # Two lines per address: the function, then file:line.
    return {o: out[2 * i] for i, o in enumerate(ordered) if 2 * i < len(out)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps = read_maps(args.profile + ".maps")
    samples = []
    with open(args.profile) as f:
        for line in f:
            pcs = [int(x, 16) for x in line.split()]
            if pcs:
                # Return addresses point after the call: look up the call.
                samples.append([pcs[0]] + [pc - 1 for pc in pcs[1:]])
    if not samples:
        sys.exit("symbolize: no samples in " + args.profile)

    wanted = collections.defaultdict(set)
    located = {}
    for pcs in samples:
        for pc in pcs:
            if pc not in located:
                module, off = locate(maps, pc)
                located[pc] = (module, off)
                if module:
                    wanted[module].add(off)
    names = {}
    for module, offsets in wanted.items():
        for off, name in symbolize(module, offsets).items():
            names[(module, off)] = name

    def name_of(pc):
        module, off = located[pc]
        if module is None:
            return "[unknown]"
        name = names.get((module, off), "??")
        return name if name != "??" else "%s+%#x" % (module.rsplit("/", 1)[-1], off)

    flat = collections.Counter()
    inclusive = collections.Counter()
    for pcs in samples:
        stack = [name_of(pc) for pc in pcs]
        flat[stack[0]] += 1
        for fn in set(stack):
            inclusive[fn] += 1
    total = len(samples)
    for title, table in (("self", flat), ("inclusive", inclusive)):
        print("%-9s %6s %7s  %s" % (title, "samples", "%", "function"))
        for fn, n in table.most_common(args.top):
            print("%-9s %6d %6.1f%%  %s" % ("", n, 100.0 * n / total, fn[:160]))
        print()
    print("%d samples" % total)


if __name__ == "__main__":
    main()

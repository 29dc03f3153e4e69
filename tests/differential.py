"""The one runner of the differential checks; it needs only the stdlib.

A differential module declares ``STREAMS = {name: (cases, seed, full
size)}``; ``cases(seed, size)`` yields cases, each (label, outcome,
reference outcome, digested bytes). Tier-1 tests read outcomes through
``checked``. ``main`` plays the first stream, or the one ``--stream``
names, at its seed and full size unless ``--seed`` or the size flag says
otherwise; it prints the label and both outcomes of the first
``SHOWN_MISMATCHES`` mismatches, then the counts of all cases and
mismatches and the sha256 of the digested bytes, and exits 1 on any
mismatch. No pytest is needed, so each documented command runs under
other interpreters too:

    for python in python3.10 python3.12 python3.13; do
        PYTHONPATH=src $python -m tests.test_merge_differential --cases 200000
    done
"""

from __future__ import annotations

import argparse
import hashlib

#: Mismatches printed in full; a broken library can give thousands.
SHOWN_MISMATCHES = 10


def case(label, outcome, expected) -> tuple:
    """A case whose digested bytes are the repr of its label and outcome."""
    return label, outcome, expected, repr((label, outcome)).encode()


def checked(cases):
    """Yield (label, outcome), asserting each outcome equals its reference."""
    for label, outcome, expected, _digested in cases:
        assert outcome == expected, label
        yield label, outcome


def parse(streams: dict, size: str, argv=None) -> tuple[str, int, int]:
    """The stream, seed and size a command line names."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--stream", choices=list(streams), default=next(iter(streams)))
    parser.add_argument("--seed", type=int)
    parser.add_argument(size, type=int, dest="size")
    args = parser.parse_args(argv)
    _cases, seed, full = streams[args.stream]
    return (args.stream, seed if args.seed is None else args.seed,
            full if args.size is None else args.size)


def main(streams: dict, size: str = "--graphs", argv=None) -> int:
    name, seed, size = parse(streams, size, argv)
    digest = hashlib.sha256()
    cases = mismatches = 0
    for label, outcome, expected, digested in streams[name][0](seed, size):
        cases += 1
        if outcome != expected:
            mismatches += 1
            if mismatches <= SHOWN_MISMATCHES:
                print("mismatch", label, outcome, expected)
        digest.update(digested)
    print(f"stream={name} seed={seed} size={size} cases={cases} "
          f"mismatches={mismatches} sha256={digest.hexdigest()}")
    return 1 if mismatches else 0

"""OEIS b-file parsing and term-by-term sequence comparison.

A b-file is plain text with one `index value` pair per line; lines
starting with '#' and blank lines are ignored. Indices must be strictly
increasing but need not start at 1 (OEIS offsets vary).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class BFileError(ValueError):
    pass


@dataclass
class BFile:
    entries: list  # (index, value) pairs, indices strictly increasing
    source: str = "<unknown>"
    _by_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_index = dict(self.entries)

    def value(self, index):
        return self._by_index.get(index)


def parse_bfile(path):
    entries = []
    last = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise BFileError(f"{path}:{lineno}: expected 'index value', got {line!r}")
            try:
                idx, val = int(parts[0]), int(parts[1])
            except ValueError:
                raise BFileError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            if last is not None and idx <= last:
                raise BFileError(f"{path}:{lineno}: index {idx} not strictly increasing")
            entries.append((idx, val))
            last = idx
    return BFile(entries, source=str(path))


def compare_with_bfile(values, bfile, offset):
    """Compare computed terms against a b-file over the overlapping range.

    values[t] corresponds to b-file index offset + t. Returns a report
    dict with the overlap length, first mismatch (if any) and a verdict
    in {'PASS', 'FAIL', 'NO_OVERLAP'}.
    """
    overlap = 0
    first_mismatch = None
    for t, computed in enumerate(values):
        idx = offset + t
        expected = bfile.value(idx)
        if expected is None:
            continue
        overlap += 1
        if computed != expected and first_mismatch is None:
            first_mismatch = (idx, computed, expected)
    if overlap == 0:
        verdict = "NO_OVERLAP"
    elif first_mismatch is None:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return {
        "source": bfile.source,
        "offset": offset,
        "overlap": overlap,
        "first_mismatch": first_mismatch,
        "verdict": verdict,
    }

#!/usr/bin/env python3
"""Validate an OpenMetrics text exposition (as served by dre_serve's
/metrics endpoint) against the subset of the spec the exporter promises:

  * every sample line's metric family has a preceding `# TYPE` line;
  * counters expose `<family>_total` samples only, and a counter family
    name must not itself end in `_total` (its sample would read
    `..._total_total`);
  * histograms expose `<family>_bucket{le=...}` / `_sum` / `_count`,
    bucket counts are cumulative (non-decreasing as `le` grows), the last
    bucket is `le="+Inf"`, and its count equals `<family>_count`;
  * sample values parse as floats (counts as non-negative integers);
  * the exposition ends with exactly one `# EOF` line, nothing after it;
  * every metric name matches [a-zA-Z_:][a-zA-Z0-9_:]*.

Usage: check_openmetrics.py <file>   (or `-` / no argument for stdin)
Exits 0 when the exposition is valid, 1 with a line-numbered complaint
otherwise. Stdlib only, so CI can run it anywhere.
"""

import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)(?: \S+)?$"
)
LE_RE = re.compile(r'le="(?P<le>[^"]+)"')


def fail(lineno, message):
    print(f"check_openmetrics: line {lineno}: {message}", file=sys.stderr)
    return 1


def family_of(sample_name):
    for suffix in ("_total", "_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)], suffix
    return sample_name, ""


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "-"
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as f:
            text = f.read()

    types = {}  # family -> declared type
    # histogram family -> list of (le_string, count), in exposition order
    buckets = {}
    counts = {}  # histogram family -> value of _count
    saw_eof = False

    for lineno, line in enumerate(text.split("\n"), start=1):
        if saw_eof and line != "":
            return fail(lineno, "content after # EOF")
        if line == "":
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                return fail(lineno, f"malformed TYPE line: {line!r}")
            _, _, family, metric_type = parts
            if not NAME_RE.match(family):
                return fail(lineno, f"bad metric name {family!r}")
            if family in types:
                return fail(lineno, f"duplicate TYPE for {family}")
            if metric_type not in ("counter", "gauge", "histogram"):
                return fail(lineno, f"unknown type {metric_type!r}")
            if metric_type == "counter" and family.endswith("_total"):
                return fail(lineno, f"counter family {family} ends in _total")
            types[family] = metric_type
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT lines are fine, we don't emit them

        m = SAMPLE_RE.match(line)
        if not m:
            return fail(lineno, f"unparseable sample line: {line!r}")
        name = m.group("name")
        family, suffix = family_of(name)
        if family not in types:
            # e.g. dre_foo_total where the family is dre_foo
            return fail(lineno, f"sample {name!r} has no preceding TYPE")
        metric_type = types[family]
        try:
            value = float(m.group("value"))
        except ValueError:
            return fail(lineno, f"non-numeric value {m.group('value')!r}")

        if metric_type == "counter":
            if suffix != "_total":
                return fail(lineno, f"counter sample {name!r} not *_total")
            if value < 0:
                return fail(lineno, f"negative counter {name!r}")
        elif metric_type == "gauge":
            if suffix != "":
                return fail(lineno, f"gauge sample {name!r} has a suffix")
        elif metric_type == "histogram":
            if suffix == "_bucket":
                labels = m.group("labels") or ""
                le = LE_RE.search(labels)
                if not le:
                    return fail(lineno, f"bucket without le label: {line!r}")
                if value < 0 or value != int(value):
                    return fail(lineno, f"bucket count not a whole number")
                buckets.setdefault(family, []).append(
                    (le.group("le"), int(value))
                )
            elif suffix == "_count":
                if value < 0 or value != int(value):
                    return fail(lineno, f"_count not a whole number")
                counts[family] = int(value)
            elif suffix == "_sum":
                pass
            else:
                return fail(
                    lineno, f"histogram sample {name!r} has bad suffix"
                )

    if not saw_eof:
        return fail(0, "missing # EOF terminator")

    for family, family_buckets in buckets.items():
        if not family_buckets or family_buckets[-1][0] != "+Inf":
            return fail(0, f"{family}: last bucket is not le=\"+Inf\"")
        running = -1
        for le, count in family_buckets:
            if count < running:
                return fail(0, f"{family}: bucket counts not cumulative")
            running = count
        if family in counts and family_buckets[-1][1] != counts[family]:
            return fail(
                0, f"{family}: +Inf bucket != _count "
                f"({family_buckets[-1][1]} vs {counts[family]})"
            )

    print(
        f"check_openmetrics: OK — {len(types)} families "
        f"({sum(1 for t in types.values() if t == 'histogram')} histograms)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

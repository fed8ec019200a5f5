#!/usr/bin/env python3
"""Check exported latency histograms for ordered summary fields.

Usage: check_histograms.py FILE...

Each FILE is either a metrics JSON export (netpartd json_out=, with a
"latencies" object) or a metrics text dump (--metrics-out), whose
"latency <name> count <n> mean_us ..." rows are read.  Every histogram must
satisfy min_us <= p50_us <= p99_us <= max_us.  Exits 1 and names each
offending histogram otherwise, and also when a file holds no histogram at
all (so a renamed export cannot pass the gate vacuously).
"""
import json
import sys


def from_json(text):
    return json.loads(text)["latencies"].items()


def from_text(text):
    for line in text.splitlines():
        words = line.split()
        if len(words) < 2 or words[0] != "latency":
            continue
        fields = dict(zip(words[2::2], words[3::2]))
        yield words[1], {k: float(v) for k, v in fields.items()}


def main(paths):
    bad = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        rows = list(from_json(text) if text.lstrip().startswith("{")
                    else from_text(text))
        if not rows:
            print(f"{path}: no latency histograms exported", file=sys.stderr)
            bad += 1
        for name, h in rows:
            chain = [h["min_us"], h["p50_us"], h["p99_us"], h["max_us"]]
            if chain != sorted(chain):
                print(f"{path}: {name}: min/p50/p99/max out of order: "
                      f"{chain}", file=sys.stderr)
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

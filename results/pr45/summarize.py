"""Tabulate a measure.sh batch from its client.log.

    python3 summarize.py batch1

client.log pairs each "run <i> <config>" line with the loadgen "live:"
line that followed it, so a run whose report JSON was not written still
counts.
"""
import os
import re
import statistics
import sys

d = sys.argv[1] if len(sys.argv) > 1 else "batch1"
runs = {}
cur = None
for line in open(os.path.join(d, "client.log")):
    m = re.match(r"run (\d+) (\S+)", line)
    if m:
        cur = (m.group(2), int(m.group(1)))
        continue
    if line.startswith("live:") and cur:
        f = dict(re.findall(r"(\w+)=([\d.]+)", line))
        runs.setdefault(cur[0], []).append((cur[1], {k: float(v) for k, v in f.items()}))
        cur = None

print("| config | run | p50 ms | p95 ms | p99 ms | admitted qps | completed | rejected 429 | failed |")
print("|---|---|---|---|---|---|---|---|---|")
for c in sorted(runs):
    for i, r in sorted(runs[c]):
        print(f"| {c} | {i} | {r['p50']:.1f} | {r['p95']:.1f} | {r['p99']:.1f} | {r['qps']:.1f} | "
              f"{r['completed']:.0f} | {r['rejected']:.0f} | {r['failed']:.0f} |")
print()
print("| config | runs | median p99 ms | p99 range | median admitted qps | qps range | median failed |")
print("|---|---|---|---|---|---|---|")
for c in sorted(runs):
    p99 = [r["p99"] for _, r in runs[c]]
    qps = [r["qps"] for _, r in runs[c]]
    failed = [r["failed"] for _, r in runs[c]]
    print(f"| {c} | {len(p99)} | {statistics.median(p99):.1f} | {min(p99):.1f}–{max(p99):.1f} | "
          f"{statistics.median(qps):.1f} | {min(qps):.1f}–{max(qps):.1f} | {statistics.median(failed):.0f} |")

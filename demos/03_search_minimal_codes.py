"""Exhaustive search for minimal codes at D = 3.

First certifies that six modes cannot support a k=1, d=3 code (the full
candidate space is enumerated), then finds a distance-3 code on eight
modes with early stopping.  Expect roughly ten seconds of work; pass
``threads=N`` to ``find_codes`` (``pfstab --threads N search`` on the
command line) to parallelize the eight-mode run.
"""

import json

from pfstab import SearchSpec, analyze, find_codes

print("searching 2n = 6, D = 3, k = 1, d = 3 (full exhaustion) ...")
codes, cert = find_codes(SearchSpec(3, 6, 1, 3, max_hits=0))
print(f"  hits: {len(codes)}; exhausted: {cert.exhausted}; tuples examined: {cert.tuples_examined}")
print("  nonexistence certificate signature:", cert.to_dict(canonical=True)["signature"][:16], "...")

print("\nsearching 2n = 8, D = 3, k = 1, d = 3 (early stop) ...")
codes, cert = find_codes(SearchSpec(3, 8, 1, 3, max_hits=1))
print(f"  tuples examined: {cert.tuples_examined}; wall time: {cert.wall_time_s:.1f}s")
code = codes[0]
print("  first hit, generators:")
for g in code.generators:
    print("   ", g)
report = analyze(code, with_lcon=False)
print(f"  parameters: k={report.k}, d={report.distance.value}")

print("\ncertificate (without hits payload):")
payload = cert.to_dict()
payload.pop("hits")
print(json.dumps(payload, indent=2, sort_keys=True))

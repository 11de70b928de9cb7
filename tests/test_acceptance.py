"""Acceptance gate: one test and one printed PASS/FAIL line per paper claim.

The claims, their checks and every threshold live in `harness.CLAIMS`, which
`actionlim verify` also runs; this gate adds only the wall-time budgets.
Each test is named after its criterion so that each one runs, prints and
fails on its own.
"""
import time

from actionlim.harness import CLAIMS, Claim

# criterion number -> wall-time budget in seconds
BUDGET_S = {1: 10.0, 3: 1.0, 4: 30.0}


def _criterion_test(claim: Claim):
    def test(capfd):
        t0 = time.perf_counter()
        records = claim.run()
        elapsed = time.perf_counter() - t0
        failed = [r for r in records if not r.passed]
        budget = BUDGET_S.get(claim.number, float("inf"))
        ok = records and not failed and elapsed < budget
        summary = records[0].measured if len(records) == 1 else f"{len(records) - len(failed)}/{len(records)} checks"
        with capfd.disabled():
            print(f"[criterion {claim.number:02d}] {claim.name}: {'PASS' if ok else 'FAIL'} ({summary}; {elapsed:.1f}s)")
        assert records and not failed, [f"{r.id}: expected {r.expected}; measured {r.measured}" for r in failed]
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"

    return test


for _claim in CLAIMS:
    globals()[f"test_criterion_{_claim.number:02d}_{_claim.name.replace('-', '_')}"] = _criterion_test(_claim)

"""Workload table. Imports nothing from the library, so the set-up probe can
time ``import wordmap`` from a clean start.

``nominal_rate`` is the number of ops per second a run at the reference
speed goes through, checks and kernel samples included; a run of
``--seconds`` times that many ops, rounded to whole cycles over the strata.
``deadline_s`` is the per-op deadline in reference-speed seconds."""

WORKLOADS = {
    "diag-f101": {
        "nominal_rate": 8.0,
        "fields": ["Fp:101"],
        # ROADMAP criterion 6 bounds one F_101 solve at 1 s.
        "deadline_s": 1.0,
        "why": "X^k1 + b*Y^k2 over F_101, n=2..8, uniform, planted and nilpotent "
               "targets; the k-th root search dominates. Seed-commit defect: (3,3) give "
               "false NotFound on quartic factors.",
    },
    "comm-f101": {
        "nominal_rate": 18.0,
        "fields": ["Fp:101"],
        "deadline_s": 1.0,
        "why": "Commutator products m=2 (trace zero), 4, 6 and trace-zero pairs over "
               "F_101, n=4..12; no k-th roots, Matrix.__mul__ and Jordan form dominate. "
               "Every target is reachable.",
    },
    "small-fields": {
        "nominal_rate": 160.0,
        "fields": ["Fp:2", "Fp:3", "Fp:5", "Fp:7",
                   "Fq:p=2,d=2,mod=[1,1,1]", "Fq:p=3,d=2,mod=[2,2,1]"],
        # Ops here take at most ~0.16 s, except the exhaustive fallback (~2-3 s);
        # 0.5 s sits more than 3x from both, so a misjudged host speed cannot
        # move an op across it.
        "deadline_s": 0.5,
        "why": "F_2..F_7, F_4, F_9 at n=2..3: solves, counts, images and CLI calls. "
               "Seed-commit defect: a quarter of F_3 n=3 diag(2,2) targets fall back to "
               "a 2-3 s exhaustive search and overrun the 0.5 s deadline.",
    },
    "char0": {
        "nominal_rate": 30.0,
        "fields": ["Q", "R:tol=1e-9", "C:tol=1e-9"],
        # Every op that succeeds here takes under 0.2 s; only planted Q targets
        # run longer, up to seconds, and those end in a false NotFound anyway.
        "deadline_s": 0.5,
        "why": "Q, R and C at n=2..8 with entries 1e-2..1e4. Seed-commit defects: R/C "
               "raise VerificationFailed away from magnitude 1, planted Q diag targets "
               "give NotFound.",
    },
}

# A traced op runs slower; its deadline is stretched by this factor so that
# the traced run does the same work as the timed run.
TRACE_DEADLINE_FACTOR = 3.0

#!/usr/bin/env python3
"""Advanced queries: MPE, soft evidence, batched inference, architectures.

The production features layered on the Fast-BNI engine beyond plain
posterior marginals.

Run:  python examples/advanced_queries.py
"""

import numpy as np

from repro import FastBNI, generate_test_cases, load_dataset
from repro.baselines.approximate import LikelihoodWeightingEngine
from repro.baselines.shenoy import ShenoyShaferEngine
from repro.jt.mpe import MPEEngine


def main() -> None:
    net = load_dataset("asia")

    # --------------------------------- most probable explanation (MPE)
    print("=== Most probable explanation ===")
    mpe = MPEEngine(net)
    evidence = {"xray": "yes", "dysp": "yes"}
    assignment, log_p = mpe.query(evidence)
    readable = {k: net.variable(k).states[v] for k, v in assignment.items()}
    print(f"evidence: {evidence}")
    print(f"MPE (log prob {log_p:.4f}): {readable}")

    # --------------------------------------------------- soft evidence
    print("\n=== Soft (virtual) evidence ===")
    with FastBNI(net, mode="seq") as engine:
        lung_yes = net.variable("lung").state_index("yes")
        hard = engine.infer({"xray": "yes"}).posteriors["lung"][lung_yes]
        # A noisy x-ray reader: 70% confident the film is positive.
        soft = engine.infer(soft_evidence={"xray": [0.7, 0.3]}
                            ).posteriors["lung"][lung_yes]
        prior = engine.infer({}).posteriors["lung"][lung_yes]
        print(f"P(lung=yes)                      = {prior:.4f}")
        print(f"P(lung=yes | soft xray evidence) = {soft:.4f}")
        print(f"P(lung=yes | xray=yes, hard)     = {hard:.4f}")

    # ------------------------------------------------ batched inference
    print("\n=== Batched inference across cases ===")
    cases = generate_test_cases(net, 50, observed_fraction=0.25, rng=3)
    with FastBNI(net, mode="seq") as engine:
        results = engine.infer_batch(cases)  # one batched calibration
    mean_lp = np.mean([r.log_evidence for r in results])
    print(f"{len(results)} cases, mean log P(e) = {mean_lp:.3f}")

    # ------------------------------- architecture & statistical checks
    print("\n=== Independent cross-checks ===")
    ss = ShenoyShaferEngine(net)
    with FastBNI(net, mode="hybrid", num_workers=4) as engine:
        a = engine.infer(evidence).posteriors["lung"]
    b = ss.infer(evidence).posteriors["lung"]
    print(f"Hugin-style hybrid : {a.round(6)}")
    print(f"Shenoy–Shafer      : {b.round(6)}   (division-free, agrees)")
    lw = LikelihoodWeightingEngine(net, num_samples=50_000, seed=0)
    c = lw.posterior("lung", evidence)
    print(f"Likelihood weighting (50k samples): {c.round(3)}   (statistical)")


if __name__ == "__main__":
    main()

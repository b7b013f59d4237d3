#!/usr/bin/env python3
"""Quickstart: exact inference on the classic Asia chest-clinic network.

Loads a bundled network, runs one Fast-BNI inference with evidence, and
prints the posterior of every diagnosis variable.

Run:  python examples/quickstart.py
"""

from repro import FastBNI, load_dataset


def main() -> None:
    # 1. Load a Bayesian network (8 nodes; bundled in BIF format).
    net = load_dataset("asia")
    print(net.summary())

    # 2. Build the engine.  The default is Fast-BNI-seq, the optimised
    #    sequential engine (one native call per case); mode="hybrid",
    #    num_workers=4 is Fast-BNI-par, the paper's hybrid
    #    inter/intra-clique parallelism on four threads.
    engine = FastBNI(net)

    # 3. A patient walks in: dyspnoea, smoker, recent trip to Asia.
    evidence = {"dysp": "yes", "smoke": "yes", "asia": "yes"}
    result = engine.infer(evidence)

    print(f"\nEvidence: {evidence}")
    print(f"log P(evidence) = {result.log_evidence:.4f}\n")
    for disease in ("tub", "lung", "bronc", "either"):
        var = net.variable(disease)
        dist = result.posteriors[disease]
        pretty = ", ".join(f"{s}: {p:.4f}" for s, p in zip(var.states, dist))
        print(f"P({disease:6s} | evidence) = [{pretty}]")

    # 4. Queries without evidence give prior marginals.
    priors = engine.infer({})
    lung_yes = net.variable("lung").state_index("yes")
    print(f"\nPrior P(lung=yes) = {priors.posteriors['lung'][lung_yes]:.4f}")
    print(f"Posterior P(lung=yes | evidence) = "
          f"{result.posteriors['lung'][lung_yes]:.4f}")

    engine.close()


if __name__ == "__main__":
    main()

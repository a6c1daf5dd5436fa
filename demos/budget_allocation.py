"""Spending an improvement budget.

With a unique bottleneck the answer is obvious: put everything there, up
to the point where the next stage takes over.  Past that point (or with
tied bottlenecks) the max-min allocator lifts the lowest stages together.
"""

from pipecalc import CostModel, Pipeline, maxmin_allocation, trivial_allocation

pipeline = Pipeline(("a", "b", "c"), {"a": 3, "b": 1, "c": 4})

for budget in (1, 2, 5):
    cost = CostModel.uniform(pipeline, budget)
    triv = trivial_allocation(pipeline, cost)
    print(
        f"budget {budget}: trivial -> throughput {triv.achieved_throughput}"
        f" (spent {triv.spent}, factor on b = {triv.multiplier.factor['b']})"
    )

print()
for budget in (1, 2, 5, 10):
    cost = CostModel.uniform(pipeline, budget)
    res = maxmin_allocation(pipeline, cost)
    factors = {s: str(f) for s, f in res.multiplier.factor.items()}
    print(
        f"budget {budget}: max-min -> throughput {res.achieved_throughput}"
        f" spent {res.spent} factors {factors}"
    )

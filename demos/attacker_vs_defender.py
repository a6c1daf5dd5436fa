"""Whose side is the speedup on?

Two independent pipelines.  What matters is not raw stage speedup but each
side's relative throughput gain: the ratio moves toward the attacker
exactly when the attacker's gain is larger.
"""

from pipecalc import (
    Multiplier,
    Pipeline,
    defender_misses_bottleneck,
    ratio_report,
)

attacker = Pipeline(
    ("recon", "exploit", "exfil"), {"recon": 9, "exploit": 2, "exfil": 6}
)
defender = Pipeline(
    ("detect", "triage", "respond"), {"detect": 40, "triage": 5, "respond": 12}
)

# the attacker doubles its bottleneck; the defender buys a faster detector
atk = Multiplier({"recon": 1, "exploit": 2, "exfil": 1})
dfn = Multiplier({"detect": 4, "triage": 1, "respond": 1})

rep = ratio_report(attacker, atk, defender, dfn)
print(f"baseline ratio {rep.baseline_ratio}, perturbed {rep.perturbed_ratio}")
print(f"attacker gain {rep.attacker_gain}, defender gain {rep.defender_gain}")
print("favours attacker:", rep.favours_attacker)
print("defender missed its bottleneck:",
      defender_misses_bottleneck(attacker, atk, defender, dfn))

# same spend aimed at the defender's actual bottleneck
dfn_smart = Multiplier({"detect": 1, "triage": 4, "respond": 1})
rep = ratio_report(attacker, atk, defender, dfn_smart)
print("\nafter redirecting spend to triage:")
print(f"attacker gain {rep.attacker_gain}, defender gain {rep.defender_gain}")
print("favours attacker:", rep.favours_attacker)

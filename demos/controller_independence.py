"""
What the controller can and cannot change
=========================================

For a fixed plant and noise environment, the disturbance-transmission term
depends only on the feedback filter and the two noise spectra — swapping in
a different stabilizing controller leaves it untouched. The independence
check measures this: under each controller it forms the term from that
closed loop's gains, (1/2) log(1 + |F_vy|^2 S_V / (|F_wy|^2 S_W)), and
compares it with the controller-free (1/2) log(1 + |H|^2 S_V / S_W). The
terms differ only by rounding. The control term, by contrast, is pinned by
the plant's unstable poles alone. Feedback design
therefore moves *neither* piece: the rate through the channel is a property
of what must be stabilized and what must be transmitted.
"""

from loopinfo import (
    LoopModel,
    RateInputs,
    controller_independence_check,
    decompose,
    pole_placement_controller,
    tf,
    white,
)
from loopinfo.lti import TF_ONE

plant = tf([0.0, 1.0], [1.0, -2.0])
model = LoopModel(plant, tf([-2.0]), TF_ONE, white(1.0), white(1.0))

# three hand-picked static gains
candidates = [tf([-2.0]), tf([-2.5]), tf([-1.5])]

# each term comes from that controller's own closed-loop gains
report = controller_independence_check(model, candidates)
print("disturbance terms:", [f"{t:.15f}" for t in report.disturbance_terms])
print("max deviation    :", report.max_deviation)
print("verdict          :", "PASS" if report.passed else "FAIL")

# the total rate still varies with the controller only through nothing at
# all in the white-noise case — each candidate reproduces the same split
print("\n  controller      total           control         disturbance")
for k in candidates:
    rep = decompose(RateInputs(LoopModel(plant, k, TF_ONE, white(1.0), white(1.0))))
    print(
        f"  K = {str(k.num.coeffs):12s}  {rep.total_rate:.12f}  "
        f"{rep.control_term:.12f}  {rep.disturbance_term:.12f}"
    )

# a second-order plant, stabilized by solving the Diophantine placement
# system: the disturbance term matches the first-order loop's because the
# noise environment is the same, while the control term tracks the plant
plant2 = tf([0.0, 1.0], [1.0, 1.0, -6.0])  # poles {2, -3}
k2 = pole_placement_controller(plant2, (0.0, 0.2, -0.2))
rep2 = decompose(RateInputs(LoopModel(plant2, k2, TF_ONE, white(1.0), white(1.0))))
print("\nsecond-order plant, placed poles (0, +/-0.2):")
print("  control term    :", rep2.control_term, " (ln 6 expected)")
print("  disturbance term:", rep2.disturbance_term, " (unchanged)")

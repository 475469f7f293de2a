"""Site survey: where in the room does PhaseBeat work best?

The chest reflection modulates the cross-antenna phase difference with a
position-dependent gain; at unlucky spots (Fresnel-null geometries) the
breathing fundamental nearly vanishes.  This example maps the predicted
sensitivity over the laboratory floor, prints it as an ASCII heat map, and
verifies the prediction by running the pipeline with a subject at the best
and worst surveyed spots.

Run:
    python examples/site_survey.py
"""

import numpy as np

from repro import (
    Person,
    PhaseBeat,
    SinusoidalBreathing,
    capture_trace,
    laboratory_scenario,
)
from repro.rf import sensitivity_map

SHADES = " .:-=+*#%@"


def main() -> None:
    scenario = laboratory_scenario(clutter_seed=5)
    print("surveying the 4.5 x 8.8 m laboratory (12 x 12 grid) ...")
    xs, ys, gain = sensitivity_map(
        scenario, (0.5, 4.0), (0.5, 8.3), resolution=12
    )

    print("\npredicted phase-difference sensitivity (rad per mm of chest motion)")
    print("T = transmitter side, R = receiver side; darker = more sensitive\n")
    scale = gain.max()
    for iy in range(len(ys) - 1, -1, -1):
        row = "".join(
            SHADES[min(int(gain[iy, ix] / scale * (len(SHADES) - 1)), 9)]
            for ix in range(len(xs))
        )
        print(f"  y={ys[iy]:4.1f}m |{row}|")
    print(f"          x: {xs[0]:.1f} ... {xs[-1]:.1f} m")
    print(f"  sensitivity range: {gain.min():.4f} – {gain.max():.4f}")

    # Verify the survey: estimate a subject at the best and worst spot.
    flat = gain.ravel()
    best = np.unravel_index(np.argmax(gain), gain.shape)
    worst = np.unravel_index(np.argmin(gain), gain.shape)
    pipeline = PhaseBeat(enforce_stationarity=False)
    print("\nvalidation (subject breathing at 16.2 bpm):")
    for label, (iy, ix) in (("best spot", best), ("worst spot", worst)):
        position = (float(xs[ix]), float(ys[iy]), 1.0)
        person = Person(
            position=position,
            breathing=SinusoidalBreathing(frequency_hz=0.27),
            heartbeat=None,
        )
        trace = capture_trace(
            scenario.with_persons([person]), duration_s=30.0, seed=5
        )
        try:
            result = pipeline.process(trace, estimate_heart=False)
            estimate = result.breathing_rates_bpm[0]
            error = abs(estimate - person.breathing_rate_bpm)
            print(
                f"  {label} {position[:2]}: estimate {estimate:6.2f} bpm "
                f"(error {error:.2f})"
            )
        except Exception as exc:
            print(f"  {label} {position[:2]}: estimation failed ({exc})")

    print(
        "\ninstallers can use this map to place the link so monitored "
        "positions avoid the low-sensitivity spots."
    )


if __name__ == "__main__":
    main()

"""Sleep monitoring: breathing rate tracking plus apnea detection.

The paper's introduction motivates contact-free monitoring with sleep
disorders and SIDS — whose signature is a breathing *pause*, not a wrong
rate.  This example simulates a sleeping subject with two scripted central
apnea episodes, runs the PhaseBeat front end, and feeds the breathing-band
signal to the envelope-threshold apnea detector.

Run:
    python examples/sleep_apnea_monitoring.py
"""

from repro import (
    Person,
    PhaseBeat,
    SinusoidalBreathing,
    capture_trace,
    laboratory_scenario,
)
from repro.core import detect_apnea
from repro.physio import ApneicBreathing

# Two central apneas: 40–55 s and 90–102 s.
PAUSES = ((40.0, 15.0), (90.0, 12.0))


def main() -> None:
    sleeper = Person(
        position=(2.2, 3.0, 0.6),  # lying down
        breathing=ApneicBreathing(
            base=SinusoidalBreathing(frequency_hz=0.22),
            pauses_s=PAUSES,
        ),
        heartbeat=None,
        name="sleeping-subject",
    )
    scenario = laboratory_scenario([sleeper], clutter_seed=9)
    print("simulating a 2-minute sleep capture with scripted apneas ...")
    trace = capture_trace(scenario, duration_s=120.0, seed=9)

    pipeline = PhaseBeat(enforce_stationarity=False)
    result = pipeline.process(trace, estimate_heart=False)
    print(
        f"\nbreathing rate over the breathing segments: "
        f"{result.breathing_rates_bpm[0]:.2f} bpm "
        f"(truth {sleeper.breathing.rate_bpm:.2f})"
    )

    events = detect_apnea(
        result.breathing_signal, result.diagnostics.calibrated_rate_hz
    )
    print(f"\nscripted pauses: {[f'{s:.0f}-{s + d:.0f}s' for s, d in PAUSES]}")
    print(f"detected events: {len(events)}")
    for event in events:
        print(
            f"  apnea {event.start_s:6.1f} – {event.end_s:6.1f} s "
            f"({event.duration_s:.1f} s, residual motion {event.depth:.0%})"
        )

    print(
        "\nthe detector thresholds the breathing-band envelope at a "
        "fraction of its median level and scores pauses over 10 s — the "
        "adult clinical criterion."
    )


if __name__ == "__main__":
    main()

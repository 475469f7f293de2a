"""Quickstart: monitor one person's breathing and heart rate.

Simulates the paper's laboratory deployment (4.5 × 8.8 m room, Intel-5300
style receiver, 400 packets/s), runs the full PhaseBeat pipeline, and
compares against the ground truth the simulator knows exactly.

Run:
    python examples/quickstart.py
"""

from repro import (
    Person,
    PhaseBeat,
    SinusoidalBreathing,
    SinusoidalHeartbeat,
    capture_trace,
    laboratory_scenario,
)


def main() -> None:
    # A subject breathing at 15 breaths/min with a 64.2 bpm heart rate,
    # seated in the lab.
    person = Person(
        position=(2.2, 3.0, 1.0),
        breathing=SinusoidalBreathing(frequency_hz=0.25),
        heartbeat=SinusoidalHeartbeat(frequency_hz=1.07),
    )

    # Directional TX (the paper's heart-rate configuration) and a 60 s
    # capture at the default 400 packets/s.
    scenario = laboratory_scenario([person], directional_tx=True)
    print(f"simulating 60 s capture in scenario {scenario.name!r} ...")
    trace = capture_trace(scenario, duration_s=60.0, seed=42)
    print(
        f"captured {trace.n_packets} packets x {trace.n_rx} antennas x "
        f"{trace.n_subcarriers} subcarriers"
    )

    # The stationarity check is calibrated for the omni setup; with a
    # directional TX we skip it, exactly as the paper's heart experiments do.
    pipeline = PhaseBeat(enforce_stationarity=False)
    result = pipeline.process(trace)

    print("\n--- PhaseBeat result ---")
    breathing = result.breathing_rates_bpm[0]
    print(
        f"breathing: {breathing:6.2f} bpm   "
        f"(truth {person.breathing_rate_bpm:.2f}, "
        f"error {abs(breathing - person.breathing_rate_bpm):.2f})"
    )
    heart = result.heart_rate_bpm
    print(
        f"heart:     {heart:6.2f} bpm   "
        f"(truth {person.heart_rate_bpm:.2f}, "
        f"error {abs(heart - person.heart_rate_bpm):.2f})"
    )

    d = result.diagnostics
    print("\n--- pipeline diagnostics ---")
    print(f"environment: V={d.v_statistic:.3f} -> {d.environment_state.value}")
    print(
        f"selected subcarrier {d.selected_subcarrier} on antenna pair "
        f"{d.selected_antenna_pair} (candidates {d.candidate_subcarriers})"
    )
    print(
        f"calibrated to {d.calibrated_rate_hz:.0f} Hz, "
        f"{d.n_calibrated_samples} samples"
    )
    print(
        f"DWT bands: breathing {d.breathing_band_hz} Hz, "
        f"heart {d.heart_band_hz} Hz"
    )


if __name__ == "__main__":
    main()

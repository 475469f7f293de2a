"""Heart-rate monitoring against a simulated pulse oximeter.

Reproduces the paper's Fig. 9 workflow: a directional TX antenna boosts the
chest reflection; the DWT detail band β₃+β₄ isolates 0.625–2.5 Hz; the FFT
peak is refined with the 3-bin inverse-FFT phase method; and the result is
compared against a fingertip pulse oximeter (which displays integer bpm —
the reason the paper reports 1.07 Hz vs a 1.06 Hz reference).

Run:
    python examples/heart_rate_monitoring.py
"""

from repro import (
    Person,
    PhaseBeat,
    SinusoidalBreathing,
    SinusoidalHeartbeat,
    capture_trace,
    laboratory_scenario,
)
from repro.physio.ground_truth import PulseOximeter


def main() -> None:
    person = Person(
        position=(2.2, 3.0, 1.0),
        # Seated subject breathing quietly — the configuration the paper
        # uses for heart experiments.
        breathing=SinusoidalBreathing(frequency_hz=0.25, amplitude_m=3e-3),
        heartbeat=SinusoidalHeartbeat(frequency_hz=1.07),
    )
    scenario = laboratory_scenario(
        [person], directional_tx=True, clutter_seed=3
    )
    print("simulating 60 s with a directional TX aimed at the subject ...")
    trace = capture_trace(scenario, duration_s=60.0, seed=3)

    pipeline = PhaseBeat(enforce_stationarity=False)
    result = pipeline.process(trace)

    oximeter_reading = PulseOximeter(seed=1).read_person(person)
    estimate = result.heart_rate_bpm
    print("\n--- heart-rate comparison ---")
    print(f"true heart rate:        {person.heart_rate_bpm:6.2f} bpm ({person.heartbeat.frequency_hz:.3f} Hz)")
    print(f"pulse oximeter reads:   {oximeter_reading:6.2f} bpm (integer display)")
    print(f"PhaseBeat estimates:    {estimate:6.2f} bpm ({estimate / 60:.3f} Hz)")
    print(f"error vs truth:         {abs(estimate - person.heart_rate_bpm):6.2f} bpm")
    print(f"error vs oximeter:      {abs(estimate - oximeter_reading):6.2f} bpm")

    print("\nbreathing (for reference): "
          f"{result.breathing_rates_bpm[0]:.2f} bpm "
          f"(truth {person.breathing_rate_bpm:.2f})")
    print(
        "\nthe heart signal is orders of magnitude weaker than breathing; "
        "the pipeline removes the breathing-locked waveform by cycle "
        "folding, band-limits with the DWT, and suppresses residual "
        "breathing harmonics before reading the FFT peak."
    )


if __name__ == "__main__":
    main()

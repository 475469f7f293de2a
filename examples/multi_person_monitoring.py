"""Multi-person breathing monitoring: FFT vs root-MUSIC.

Recreates the paper's Fig. 8 story: three seated subjects, two of them
breathing only 0.025 Hz (1.5 bpm) apart.  A plain FFT over the analysis
window cannot resolve the close pair; root-MUSIC over the 30 calibrated
subcarrier series can.

Run:
    python examples/multi_person_monitoring.py
"""

import numpy as np

from repro import (
    Person,
    PhaseBeat,
    SinusoidalBreathing,
    capture_trace,
    laboratory_scenario,
)

# The paper's three-person rates (Hz): the last two are only 0.025 apart.
RATES_HZ = (0.1467, 0.2233, 0.2483)
POSITIONS = ((0.8, 5.5, 1.0), (2.2, 6.2, 1.0), (3.8, 5.8, 1.0))


def main() -> None:
    persons = [
        Person(
            position=POSITIONS[i],
            breathing=SinusoidalBreathing(
                frequency_hz=f, amplitude_m=3.0e-3, phase=0.7 * i
            ),
            heartbeat=None,
            name=f"subject-{i + 1}",
        )
        for i, f in enumerate(RATES_HZ)
    ]
    truth_bpm = np.array([p.breathing_rate_bpm for p in persons])

    scenario = laboratory_scenario(persons, clutter_seed=1)
    print("simulating 60 s with three subjects ...")
    trace = capture_trace(scenario, duration_s=60.0, seed=1)

    pipeline = PhaseBeat(enforce_stationarity=False)

    print(f"\nground truth: {np.round(truth_bpm, 2)} bpm")
    for method, label in (("fft", "FFT"), ("music", "root-MUSIC (30 sc)")):
        result = pipeline.process(
            trace, n_persons=3, estimate_heart=False, breathing_method=method
        )
        rates = np.asarray(result.breathing_rates_bpm)
        errors = np.abs(np.sort(rates) - np.sort(truth_bpm)[: rates.size])
        print(
            f"{label:>18}: {np.round(rates, 2)} bpm "
            f"(worst error {errors.max():.2f} bpm)"
        )

    print(
        "\nthe close pair at 13.4 / 14.9 bpm merges under the FFT's "
        "Rayleigh limit; root-MUSIC's subspace super-resolution separates it."
    )


if __name__ == "__main__":
    main()

"""The benchmark's workloads. Why each one exists is in BENCHMARK.json."""

from __future__ import annotations

import math
from dataclasses import dataclass

ENGINE_ORDER = ("em", "nb", "lr")


@dataclass(frozen=True)
class Workload:
    name: str
    api: str  # "library": run_pipeline on SourceSynthetic; "cli": cli.main on CSV files
    n_records: int
    n_noise: int
    n_signal: int
    thresholds: tuple[float, ...]
    num_features: int
    engines: tuple[str, ...]

    @property
    def n_attributes(self) -> int:
        return self.n_noise + self.n_signal

    @property
    def n_train(self) -> int:
        # the library's 0.8 ratio split and the CSV workload's file split agree
        return math.ceil(self.n_records * 0.8)

    @property
    def n_test(self) -> int:
        return self.n_records - self.n_train


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-synth", "library", 50_000, 36, 4, (0.4, 0.6, 0.8), 11, ENGINE_ORDER),
        Workload("narrow-synth", "library", 120_000, 6, 2, (0.4,), 4, ENGINE_ORDER),
        Workload("csv-files", "cli", 50_000, 38, 3, (0.4, 0.6, 0.8), 11, ("nb",)),
    )
}

# Share of test.csv rows whose cell in one numeric column becomes "?", so
# that the test file infers a different schema and conform() re-types it.
MISSING_SHARE = 0.01

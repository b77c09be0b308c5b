// Whole-program fixture, good twin: the same cross-TU wall-clock use,
// annotated as a deliberate nondeterminism seam (the convention of the
// client seam in src/can/controller.cpp) — no finding.
namespace obsclock {
long long wall_ns();
long long sample_stamp() {
  // canely-lint: nondeterministic-ok(fixture: sampler pacing is wall-time by design, observational only)
  return wall_ns();
}
}  // namespace obsclock

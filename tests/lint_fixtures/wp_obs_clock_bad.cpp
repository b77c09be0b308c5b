// Whole-program fixture, bad twin: src/obs code (a determinism zone)
// reaching a wall-clock helper in a non-zone TU without declaring the
// seam — the shape an unannotated wall-time sampler would have.  Only
// the cross-TU escape analysis can convict.
namespace obsclock {
long long wall_ns();
long long sample_stamp() { return wall_ns(); }
}  // namespace obsclock

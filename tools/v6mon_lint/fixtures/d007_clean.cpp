// D007 fixture (clean): campaign ordering expressed as the segment loop
// — advance between segments, one parallel_index fork/join per segment
// — plus the ALLOW escape for a join that is not a scheduling barrier.
// Free functions named wait/join (no member access) never match.

#include <cstddef>
#include <functional>

struct Pool {};

void parallel_index(Pool& pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn);

void advance_world(unsigned round);
void run_round(std::size_t vp, unsigned round);

// Ordering as loop structure: the advance runs between two fork/joins,
// each of which returns only when its own indices have finished.
void run_segments(Pool& pool, const unsigned* bounds, std::size_t segments,
                  std::size_t vps) {
  for (std::size_t seg = 0; seg < segments; ++seg) {
    const unsigned lo = bounds[seg];
    const unsigned hi = bounds[seg + 1];
    advance_world(lo);
    parallel_index(pool, vps, [lo, hi](std::size_t vp) {
      for (unsigned round = lo; round < hi; ++round) run_round(vp, round);
    });
  }
}

struct TraceWriter {
  void join();
};

// A join that drains an IO writer at campaign teardown is not a
// round-scheduling barrier — ALLOW with that reason.
void finalize(TraceWriter& writer) {
  // V6MON_LINT_ALLOW(D007): teardown drain of the trace writer after
  // the last segment completed — no round ordering depends on it
  writer.join();
}

void wait(int rounds);

void free_functions_do_not_match() {
  wait(3);
}

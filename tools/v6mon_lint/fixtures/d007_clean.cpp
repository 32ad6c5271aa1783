// D007 fixture (clean): campaign ordering expressed as Executor
// dependency edges, plus the ALLOW escape for a join that is not a
// scheduling barrier. Free functions named wait/join (no member access)
// never match.

using NodeId = unsigned;

struct Executor {
  NodeId add(unsigned long long key, void (*body)());
  void add_edge(NodeId before, NodeId after);
  void run();
};

void round_body();
void advance_body();

// Ordering as graph structure: the gate waits on the previous round via
// an edge, not via a pool join between the two submissions.
void run_rounds(Executor& exec) {
  const NodeId prev = exec.add(0, &round_body);
  const NodeId gate = exec.add(1, &advance_body);
  exec.add_edge(prev, gate);
  exec.run();
}

struct TraceWriter {
  void join();
};

// A join that drains an IO writer at campaign teardown is not a
// round-scheduling barrier — ALLOW with that reason.
void finalize(TraceWriter& writer) {
  // V6MON_LINT_ALLOW(D007): teardown drain of the trace writer after
  // the graph completed — no round ordering depends on it
  writer.join();
}

void wait(int rounds);

void free_functions_do_not_match() {
  wait(3);
}

#include "core/executor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/contracts.h"

namespace v6mon::core {

namespace {

/// Scheduler-layer metric handles (registered once, lazily). The graph-
/// shape counters (nodes/edges/roots/blocked) are pure functions of the
/// campaign configuration — byte-comparable across thread counts like
/// every other counter. The stolen-node count and the wait
/// histogram are schedule facts: a gauge and a wall-time histogram,
/// excluded from the determinism contract (obs/metrics.h).
struct ExecutorMetricIds {
  obs::MetricId nodes = obs::metrics().counter("executor.nodes");
  obs::MetricId edges = obs::metrics().counter("executor.edges");
  obs::MetricId roots = obs::metrics().counter("executor.nodes_ready_at_start");
  obs::MetricId blocked = obs::metrics().counter("executor.nodes_blocked");
  obs::MetricId wait_hist =
      obs::metrics().histogram("executor.node_wait_seconds");
};

const ExecutorMetricIds& executor_metric_ids() {
  static const ExecutorMetricIds ids;
  return ids;
}

}  // namespace

/// Run-scoped scheduling state, shared with pool helpers. See the
/// header's note on why this outlives the run() call (a helper that
/// finds nothing to do may lock `mu` after run() has returned).
struct Executor::Sched {
  /// One ready node: min-heap order by (key, id) — the deterministic
  /// dispatch order.
  struct Entry {
    std::uint64_t key = 0;
    NodeId id = kNoNode;
  };
  struct LaterDispatch {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key != b.key ? a.key > b.key : a.id > b.id;
    }
  };

  util::Mutex mu;
  std::condition_variable cv;
  std::vector<Entry> ready V6MON_GUARDED_BY(mu);
  std::size_t remaining V6MON_GUARDED_BY(mu) = 0;  ///< Unexecuted nodes.
  /// Nodes popped but not yet fully completed (body + bookkeeping +
  /// follow-on submits). run() returns only when this is zero, which is
  /// what keeps the Executor alive for every helper that took a node.
  std::size_t inflight V6MON_GUARDED_BY(mu) = 0;
  std::size_t stolen V6MON_GUARDED_BY(mu) = 0;

  void push_ready(std::uint64_t key, NodeId id) V6MON_REQUIRES(mu) {
    ready.push_back(Entry{key, id});
    std::push_heap(ready.begin(), ready.end(), LaterDispatch{});
  }
  [[nodiscard]] NodeId pop_ready() V6MON_REQUIRES(mu) {
    std::pop_heap(ready.begin(), ready.end(), LaterDispatch{});
    const NodeId id = ready.back().id;
    ready.pop_back();
    ++inflight;
    return id;
  }
};

Executor::Executor(ThreadPool& pool) : pool_(pool) {}
Executor::~Executor() = default;

Executor::NodeId Executor::add(std::uint64_t key, std::function<void()> body) {
  V6MON_REQUIRE(!ran_, "Executor::add after run()");
  V6MON_ASSERT(body != nullptr, "Executor node needs a callable body");
  V6MON_REQUIRE(nodes_.size() < kNoNode, "Executor node count overflow");
  Node node;
  node.body = std::move(body);
  node.key = key;
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Executor::add_edge(NodeId before, NodeId after) {
  V6MON_REQUIRE(!ran_, "Executor::add_edge after run()");
  V6MON_REQUIRE(before < nodes_.size() && after < nodes_.size(),
                "Executor edge endpoint out of range");
  V6MON_REQUIRE(before != after, "Executor self-edge");
  nodes_[before].successors.push_back(after);
  ++nodes_[after].unmet;
  ++edges_;
}

std::size_t Executor::root_count() const {
  if (ran_) return roots_;
  std::size_t roots = 0;
  for (const Node& node : nodes_) {
    if (node.unmet == 0) ++roots;
  }
  return roots;
}

void Executor::execute_ready(const std::shared_ptr<Sched>& sched, NodeId id,
                             bool stolen) {
  auto& metrics = obs::metrics();
  // Tail-continuation loop: after completing a node this thread pops the
  // best ready node itself and keeps going, paying one lock acquisition
  // per node instead of a pool submit + worker dequeue round-trip.
  // Helpers are submitted only for *surplus* newly-ready nodes — the
  // parallelism the current carriers cannot absorb.
  while (true) {
    Node& node = nodes_[id];
    if (node.ready_ns != 0) {
      metrics.observe(executor_metric_ids().wait_hist,
                      static_cast<double>(obs::now_ns() - node.ready_ns) * 1e-9);
    }
    node.body();
    node.body = nullptr;  // drop captures as soon as the node is done
    // Completion bookkeeping under the scheduler mutex: this is the
    // happens-before edge that publishes the body's effects to every
    // successor (which starts by locking the same mutex before running).
    std::vector<Sched::Entry> newly;
    NodeId next = kNoNode;
    bool wake = false;
    {
      util::LockGuard lock(sched->mu);
      if (stolen) ++sched->stolen;
      const bool stamp = metrics.enabled();
      for (const NodeId succ : node.successors) {
        V6MON_ASSERT(nodes_[succ].unmet > 0, "Executor unmet underflow");
        if (--nodes_[succ].unmet == 0) {
          if (stamp) nodes_[succ].ready_ns = obs::now_ns();
          sched->push_ready(nodes_[succ].key, succ);
          newly.push_back(Sched::Entry{nodes_[succ].key, succ});
        }
      }
      --sched->remaining;
      // Hand the carried-work token (inflight) from the completed node
      // to the next one in the same critical section: pop_ready
      // increments for the popped node, so the paired decrement keeps
      // the carrier at net one token and run()'s cycle detector never
      // observes "nodes left, nothing ready, nothing in flight" while
      // we still hold work. While the token is held, run() cannot
      // return, so `this` stays valid for the submits below.
      if (!sched->ready.empty()) {
        next = sched->pop_ready();
        --sched->inflight;
      }
      wake = !sched->ready.empty();
    }
    // The only cv waiter is run()'s caller loop, and it waits for ready
    // work or termination. In the steady chain case (one successor,
    // taken by this carrier) neither changed — skip the futex wakeup.
    if (wake) sched->cv.notify_all();
    if (next == kNoNode) {
      // Graph frontier exhausted from this carrier's point of view:
      // nothing was newly readied either (a new entry would have been
      // popped above), so there is nothing to submit. Release the token
      // last — past this point only the refcounted Sched may be touched,
      // because run() may return and destroy the Executor immediately.
      {
        util::LockGuard lock(sched->mu);
        --sched->inflight;
      }
      sched->cv.notify_all();
      return;
    }
    // One helper per newly ready node this thread is NOT about to run:
    // the caller (or another carrier) may grab it first, in which case
    // the extra helper finds an empty heap and exits. With a 1-thread
    // pool nothing is ever submitted and the calling thread runs the
    // whole graph in exact (key, id) order.
    if (pool_.thread_count() > 1 && newly.size() > 1) {
      for (std::size_t i = 0; i + 1 < newly.size(); ++i) {
        pool_.submit(newly[i].key, [this, sched] {
          NodeId grabbed = kNoNode;
          {
            util::LockGuard lock(sched->mu);
            if (!sched->ready.empty()) grabbed = sched->pop_ready();
          }
          if (grabbed != kNoNode) execute_ready(sched, grabbed, /*stolen=*/true);
        });
      }
    }
    id = next;
  }
}

void Executor::run() {
  V6MON_REQUIRE(!ran_, "Executor::run is single-shot");
  roots_ = root_count();  // snapshot before execution consumes unmet
  ran_ = true;
  auto& metrics = obs::metrics();
  if (metrics.enabled()) {
    const ExecutorMetricIds& ids = executor_metric_ids();
    metrics.add(ids.nodes, nodes_.size());
    metrics.add(ids.edges, edges_);
    metrics.add(ids.roots, roots_);
    metrics.add(ids.blocked, nodes_.size() - roots_);
  }
  if (nodes_.empty()) return;

  const auto sched = std::make_shared<Sched>();
  std::size_t initial_ready = 0;
  {
    util::LockGuard lock(sched->mu);
    sched->remaining = nodes_.size();
    const bool stamp = metrics.enabled();
    const std::uint64_t start_ns = stamp ? obs::now_ns() : 0;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].unmet == 0) {
        nodes_[id].ready_ns = start_ns;
        sched->push_ready(nodes_[id].key, id);
        ++initial_ready;
      }
    }
  }
  V6MON_REQUIRE(initial_ready > 0, "Executor graph has no root node");

  // The caller takes one root itself; offer the rest to the pool.
  if (pool_.thread_count() > 1 && initial_ready > 1) {
    for (std::size_t i = 1; i < initial_ready; ++i) {
      pool_.submit([this, sched] {
        NodeId next = kNoNode;
        {
          util::LockGuard lock(sched->mu);
          if (!sched->ready.empty()) next = sched->pop_ready();
        }
        if (next != kNoNode) execute_ready(sched, next, /*stolen=*/true);
      });
    }
  }

  // Caller participation loop: execute ready nodes until the graph is
  // done, sleeping only while every runnable node is on a pool worker.
  while (true) {
    NodeId id = kNoNode;
    {
      util::UniqueLock lock(sched->mu);
      while (true) {
        if (!sched->ready.empty()) {
          id = sched->pop_ready();
          break;
        }
        if (sched->remaining == 0 && sched->inflight == 0) break;
        // Ready empty, nothing running anywhere, nodes left: only a
        // dependency cycle can produce this stall.
        V6MON_ENSURE(sched->inflight != 0,
                     "Executor graph has a dependency cycle");
        lock.wait(sched->cv);
      }
    }
    if (id == kNoNode) break;
    execute_ready(sched, id, /*stolen=*/false);
  }

  {
    util::LockGuard lock(sched->mu);
    stolen_ = sched->stolen;
  }
  if (metrics.enabled()) {
    metrics.set_gauge("executor.nodes_stolen", static_cast<double>(stolen_));
  }
}

}  // namespace v6mon::core

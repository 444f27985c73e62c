#include "smilab/noise/injector.h"

#include <string>

namespace smilab {

OsNoiseInjector::OsNoiseInjector(System& sys, OsNoiseConfig config)
    : sys_(sys), config_(config) {
  const int nodes = sys.cluster().node_count();
  node_rng_.reserve(static_cast<std::size_t>(nodes));
  next_cpu_.resize(static_cast<std::size_t>(nodes), config.cpu);
  held_.resize(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    held_[static_cast<std::size_t>(n)].assign(
        static_cast<std::size_t>(sys.cluster().node(n).cpu_count()), false);
    node_rng_.push_back(sys.make_rng("osnoise." + std::to_string(n)));
    const SimDuration phase =
        config_.fixed_initial_phase >= SimDuration::zero()
            ? config_.fixed_initial_phase
            : node_rng_.back().uniform_duration(SimDuration::zero(),
                                                config_.interval);
    arm(n, phase);
  }
}

void OsNoiseInjector::arm(int node, SimDuration delay) {
  sys_.engine().schedule_after(delay, [this, node] { fire(node); });
}

void OsNoiseInjector::fire(int node) {
  ++events_;
  // Skip the event while a whole-node cause (SMM, a fault freeze, a crash)
  // holds the node: an OS-level wakeup would simply be deferred. So a
  // preemption never starts inside a stop; one that a stop overlaps ends
  // with the node's thaw (System::resume_cpu). Likewise an event whose
  // victim this injector still holds (duration > interval) is skipped.
  const Node& topo = sys_.cluster().node(node);
  int victim = next_cpu_[static_cast<std::size_t>(node)];
  if (!topo.is_online(victim)) victim = 0;
  std::vector<bool>::reference held =
      held_[static_cast<std::size_t>(node)][static_cast<std::size_t>(victim)];
  if (!sys_.node_in_smm(node) && !sys_.node_fault_frozen(node) &&
      !sys_.node_crashed(node) && !held) {
    held = true;
    sys_.preempt_cpu(node, victim);
    sys_.engine().schedule_after(config_.duration, [this, node, victim] {
      held_[static_cast<std::size_t>(node)][static_cast<std::size_t>(victim)] =
          false;
      sys_.resume_cpu(node, victim);
    });
    if (config_.rotate_cpus) {
      int next = victim;
      do {
        next = (next + 1) % topo.cpu_count();
      } while (!topo.is_online(next));
      next_cpu_[static_cast<std::size_t>(node)] = next;
    }
  }
  arm(node, config_.interval);
}

}  // namespace smilab

// OS interaction cost model: context switches, system calls, pipe
// operations, and the scheduler quantum. These feed the UnixBench workload
// models and the oversubscribed-thread scheduling in the Convolve study.
#pragma once

#include "smilab/time/sim_time.h"

namespace smilab {

struct OsCosts {
  /// Direct cost of a context switch (state save/restore + cache residue).
  SimDuration context_switch = microseconds(3);

  /// Entry/exit cost of a trivial system call (getpid-class).
  SimDuration syscall = nanoseconds(250);

  /// CPU cost of writing or reading a small pipe buffer (one side).
  SimDuration pipe_op = nanoseconds(900);

  /// Round-robin timeslice when a CPU is oversubscribed. Approximates CFS
  /// sched_latency on the paper's kernels.
  SimDuration quantum = milliseconds(6);

  // The kernel is tickless (CONFIG_NO_HZ), as in the paper's studies: no
  // periodic timer interrupt charges a CPU that runs a single task.
};

}  // namespace smilab
